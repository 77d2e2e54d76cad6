// Package a is the lockorder fixture: blocking operations and lock-order
// inversions inside critical sections, plus the patterns that must stay
// clean (deferred unlocks, select with default, the declared hierarchy).
package a

import (
	"sync"
	"time"
)

type Service struct {
	mu sync.RWMutex
	n  int
}

type fitPipeline struct {
	mu sync.Mutex
	n  int
}

type Engine struct{}

func (e *Engine) Fit() {}

func (s *Service) badSleep() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while s.mu is write-locked`
	s.mu.Unlock()
}

func (s *Service) badFit(e *Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.Fit() // want `model fit \(Fit\) while s.mu is write-locked`
}

func (s *Service) badRecv(ch chan int) {
	s.mu.Lock()
	<-ch // want `blocking channel receive while s.mu is write-locked`
	s.mu.Unlock()
}

func (s *Service) badSend(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch <- 1 // want `blocking channel send while s.mu is write-locked`
}

func (s *Service) badUnbalanced(cond bool) {
	s.mu.Lock()
	if cond {
		return // want `return with s.mu still locked`
	}
	s.mu.Unlock()
}

func (p *fitPipeline) badOrder(s *Service) {
	p.mu.Lock()
	s.mu.Lock() // want `inverts the declared lock order`
	s.mu.Unlock()
	p.mu.Unlock()
}

// blockIndirect exists to be reached through the call-graph walk: it blocks,
// so calling it from a critical section is flagged at the call site.
func (s *Service) blockIndirect(ch chan int) {
	<-ch
}

func (s *Service) badTransitive(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blockIndirect(ch) // want `may block while s.mu is write-locked`
}

// --- false-positive guards ---

func (s *Service) okDefer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

func (s *Service) okSelectDefault(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-ch:
		s.n++
	default:
	}
}

func (s *Service) okAllowedOrder(p *fitPipeline) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
}

func (s *Service) okBranchBalance(cond bool) int {
	s.mu.RLock()
	if cond {
		s.mu.RUnlock()
		return 0
	}
	n := s.n
	s.mu.RUnlock()
	return n
}

func (s *Service) okBlockOffLock(ch chan int) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	<-ch
}
