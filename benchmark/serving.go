package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"poilabel/internal/model"
)

const (
	// setupRegistrations: a run sets its server up often enough to register
	// about this many tasks in all, 3 times for a world of 8 000 and at most
	// maxSetupReps times for a small one, and reports the median.
	setupRegistrations = 24000
	maxSetupReps       = 9
	// readsPerCycle is how many times the settled results are read in each
	// cycle of the replay tail.
	readsPerCycle = 5
	// traceBlock: a traced run records spans in every other block of this
	// many sessions and none in the blocks between; the difference between
	// the two kinds is the tracing overhead. Short blocks spread both kinds
	// evenly over fits, probes and the growing model.
	traceBlock = 50
)

// probePoints are the shares of the schedule after which a traced run pauses
// traffic and probes the layers. Untraced runs join their senders at the
// same points, so both modes issue one schedule.
var probePoints = []float64{0.25, 0.50, 1.00}

// after is what remains to be done with a workload's program once its traffic
// is over: each runs once per cycle of the replay tail, close when the tail is
// done.
type after struct {
	each  func() error
	close func() error
}

// serving drives one of the three HTTP workloads.
type serving struct {
	spec     spec
	w        *world
	sessions []session
	warm     int // sessions [0,warm) are warm-up
	c        *client
	rec      *recorder
	out      *outcome

	mu     sync.Mutex // guards out and handed while senders run
	handed map[[2]int]bool
	done   atomic.Bool // the terminal 402 was seen

	// sliceMS[traced?] holds, per measured session, what trace.overhead_pct
	// compares: see overheadPct.
	sliceMS [2][]float64
}

// setup brings a server up with the world registered and healthy, several
// times over, keeps the last one and reports the median time.
func setupServing(ctx context.Context, s spec, w *world, bin string, rec *recorder) (*target, *client, float64, error) {
	reps := min(maxSetupReps, max(1, setupRegistrations/len(w.taskIDs)))
	var times []float64
	for rep := 0; ; rep++ {
		start := time.Now()
		var tgt *target
		var err error
		if rec != nil {
			tgt, err = inProcess(s, rec)
		} else {
			tgt, err = spawn(ctx, bin, s)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		c := newClient(tgt.base, connections(), rec)
		err = c.register(ctx, w)
		var h *health
		if err == nil {
			h, err = c.health(ctx)
		}
		if err == nil && (!h.OK || h.Tasks != len(w.taskIDs) || h.Workers != len(w.workerIDs) || h.Engine != s.engineName()) {
			err = fmt.Errorf("server not as configured after set-up: %+v", *h)
		}
		if err != nil {
			c.close()
			tgt.stop()
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if rep == reps-1 {
			return tgt, c, median(times), nil
		}
		c.close()
		tgt.stop()
	}
}

// runServing runs the traffic of one HTTP workload, waits for the server to
// settle and checks its ledger. The server stays up: the returned after reads
// the settled results while the replay tail runs and stops the server at the
// end.
func runServing(ctx context.Context, s spec, w *world, seed int64, bin string, rec *recorder, pr *prober) (_ *outcome, _ *after, err error) {
	tgt, c, setupS, err := setupServing(ctx, s, w, bin, rec)
	if err != nil {
		return nil, nil, err
	}
	stop := func() {
		c.close()
		tgt.stop()
	}
	defer func() {
		if err != nil {
			stop()
		}
	}()

	sv := &serving{spec: s, w: w, c: c, rec: rec, out: newOutcome(), handed: make(map[[2]int]bool)}
	sv.out.setupS = setupS
	var drift []int
	if s.driftAt > 0 {
		drift = w.hotQuadrant()
	}
	n := s.sessions
	if s.budget >= 0 {
		n *= 2 // the run ends on the 402; the schedule only has to outlast it
	}
	resultsEvery, infoEvery := 0, 0
	if s.loop == loopOpen {
		resultsEvery, infoEvery = openResultsEvery, openInfoEvery
	}
	sv.sessions = schedule(seed, n, allIdentities(len(w.workerIDs)), drift, s.driftAt, s.rate, resultsEvery, infoEvery)
	sv.out.scheduleHash = hashSchedule(sv.sessions)
	sv.warm = int(warmupShare * float64(s.sessions))

	// Segment boundaries: end of warm-up, then the probe points. The last
	// segment of a budgeted run extends to the end of the schedule.
	bounds := []int{sv.warm}
	for _, p := range probePoints {
		bounds = append(bounds, int(p*float64(s.sessions)))
	}
	bounds[len(bounds)-1] = len(sv.sessions)
	// Throughput "after the drift" starts at the drift point; a workload
	// without one has it at the start of the measured phase.
	driftFrom := sv.warm
	if s.driftAt > 0 {
		driftFrom = s.driftAt
	}

	var offset time.Duration // open loop: time spent paused in probes
	t0 := time.Now()
	var traffic, measured, late time.Duration
	var ackedAtWarm, ackedAtDrift int
	lo := 0
	for bi, hi := range bounds {
		if lo == sv.warm {
			ackedAtWarm = sv.out.acked
		}
		if lo == driftFrom {
			ackedAtDrift = sv.out.acked
		}
		d := sv.segment(ctx, lo, hi, t0.Add(offset))
		traffic += d
		if lo >= sv.warm {
			measured += d
		}
		if lo >= driftFrom {
			late += d
		}
		lo = hi
		if pr != nil && bi > 0 {
			pause := time.Now()
			if err := pr.at(probePoints[bi-1], tgt.svc, sv.out.log); err != nil {
				return nil, nil, err
			}
			offset += time.Since(pause)
		}
	}
	lastAck := time.Now()
	out := sv.out
	if measured <= 0 || late <= 0 || out.acked <= ackedAtDrift {
		return nil, nil, fmt.Errorf("traffic ended after %d answers, before its measured phase", out.acked)
	}
	out.trafficS, out.measuredS = traffic.Seconds(), measured.Seconds()
	out.answersPerS = float64(out.acked-ackedAtWarm) / measured.Seconds()
	out.lateAnswersPerS = float64(out.acked-ackedAtDrift) / late.Seconds()
	if rec != nil {
		out.layer["trace.overhead_pct"] = sv.overheadPct()
	}

	// Settle: every acknowledged answer covered by a published fit and no
	// fit in flight, then read the results.
	h, err := sv.settle(ctx)
	if err != nil {
		return nil, nil, err
	}
	out.freshWaitS = time.Since(lastAck).Seconds()
	// One read for the labels; the timed reads come with the tail.
	r, err := c.do(ctx, "", http.MethodGet, "/results", nil)
	if err != nil || r.status != http.StatusOK {
		return nil, nil, fmt.Errorf("GET /results after settling: status %d: %v", r.status, err)
	}
	var rr resultsReply
	if err := json.Unmarshal(r.body, &rr); err != nil {
		return nil, nil, fmt.Errorf("GET /results: %w", err)
	}
	if out.accuracy, err = w.accuracy(rr.Results); err != nil {
		return nil, nil, err
	}
	out.resultsBytes = len(r.body)

	// The ledger, from the server's own counters.
	if h.Answers != out.acked {
		out.fail("server holds %d answers, driver had %d acknowledged", h.Answers, out.acked)
	}
	if h.Pending != 0 {
		out.fail("%d pairs still pending after every hand-out was answered", h.Pending)
	}
	if s.budget >= 0 {
		if spent := s.budget - h.RemainingBudget; spent != out.handed {
			out.fail("budget spent %d, pairs handed out %d", spent, out.handed)
		}
		if !sv.done.Load() {
			out.fail("schedule ran out before the terminal 402")
		}
	} else if h.RemainingBudget != -1 {
		out.fail("unlimited budget reads %d", h.RemainingBudget)
	}
	if out.handed != out.acked {
		out.fail("%d pairs handed out, %d answers acknowledged", out.handed, out.acked)
	}
	if n := tgt.maxConns(); n > connections() {
		out.fail("%d connections open at once, limit %d", n, connections())
	}
	out.health = h
	if out.series, err = c.scrape(ctx); err != nil {
		return nil, nil, err
	}
	return out, &after{
		each: func() error {
			return out.readSettled(readsPerCycle, func() (time.Duration, error) {
				r, err := c.do(ctx, "results", http.MethodGet, "/results", nil)
				if err != nil || r.status != http.StatusOK {
					return 0, fmt.Errorf("GET /results after settling: status %d: %v", r.status, err)
				}
				return r.dur(), nil
			})
		},
		close: func() error {
			defer stop()
			var err error
			out.peakRSSMB, err = tgt.peakRSS()
			return err
		},
	}, nil
}

// segment runs sessions [lo,hi) on the driver's connections and returns how
// long that took. Open-loop sessions wait for their due time after t0.
func (sv *serving) segment(ctx context.Context, lo, hi int, t0 time.Time) time.Duration {
	if lo >= hi || sv.done.Load() {
		return 0
	}
	start := time.Now()
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < connections(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !sv.done.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				sv.session(ctx, i, t0)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// session runs one visit: assignment, one answer per task, optional reads.
func (sv *serving) session(ctx context.Context, i int, t0 time.Time) {
	s := sv.sessions[i]
	measured := i >= sv.warm
	// op names are empty in the untraced blocks, which sends the requests
	// without an id and records nothing.
	slice := 0
	opAssign, opAnswer, opResults, opWorker := "", "", "", ""
	if sv.rec != nil && (i/traceBlock)%2 == 0 {
		slice = 1
		opAssign, opAnswer, opResults, opWorker = "assign", "answer", "results", "worker"
	}
	var due time.Time
	var lag float64
	if sv.spec.loop == loopOpen {
		due = t0.Add(s.Due)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return
			}
		}
		lag = ms(time.Since(due))
	}
	id := sv.w.workerIDs[s.Worker]
	began := time.Now()

	r, err := sv.c.do(ctx, opAssign, http.MethodPost, "/assignments", assignRequest{Workers: []string{id}})
	var ar assignReply
	var assignErr string
	switch {
	case err != nil:
		assignErr = err.Error()
	case r.status == http.StatusPaymentRequired && sv.spec.budget >= 0:
		sv.done.Store(true)
	case r.status != http.StatusOK:
		assignErr = fmt.Sprintf("status %d: %s", r.status, r.body)
	default:
		if err := json.Unmarshal(r.body, &ar); err != nil {
			assignErr = err.Error()
		}
	}
	assignMS := ms(r.dur())
	if !due.IsZero() {
		assignMS = ms(r.end.Sub(due))
	}
	tasks := ar.Assignments[id]

	type sent struct {
		a  model.Answer
		ms float64
		ok bool
	}
	answers := make([]sent, 0, len(tasks))
	var problems []string
	for _, tid := range tasks {
		ti, ok := sv.w.taskIdx[tid]
		if !ok {
			problems = append(problems, fmt.Sprintf("assigned unknown task %q", tid))
			continue
		}
		sv.mu.Lock()
		twice := sv.handed[[2]int{s.Worker, ti}]
		sv.handed[[2]int{s.Worker, ti}] = true
		sv.mu.Unlock()
		if twice {
			problems = append(problems, fmt.Sprintf("pair (%s,%s) handed out twice", id, tid))
		}
		a := sv.w.answer(s.Worker, ti)
		r, err := sv.c.do(ctx, opAnswer, http.MethodPost, "/answers", answerRequest{Worker: id, Task: tid, Selected: a.Selected})
		st := sent{a: a, ms: ms(r.dur()), ok: err == nil && r.status == http.StatusAccepted}
		if !st.ok {
			problems = append(problems, fmt.Sprintf("answer (%s,%s): status %d: %v", id, tid, r.status, err))
		}
		answers = append(answers, st)
	}

	var resultsMS float64
	reads := 0
	if s.Results && !sv.done.Load() {
		r, err := sv.c.do(ctx, opResults, http.MethodGet, "/results", nil)
		reads++
		if err != nil || r.status != http.StatusOK {
			problems = append(problems, fmt.Sprintf("GET /results: status %d: %v", r.status, err))
		} else {
			resultsMS = ms(r.dur())
		}
	}
	if s.Info && !sv.done.Load() {
		r, err := sv.c.do(ctx, opWorker, http.MethodGet, "/workers/"+id, nil)
		reads++
		if err != nil || r.status != http.StatusOK {
			problems = append(problems, fmt.Sprintf("GET /workers/%s: status %d: %v", id, r.status, err))
		}
	}
	wall := time.Since(began)

	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := sv.out
	out.sessions++
	out.attempted += 1 + len(tasks) + reads
	if assignErr != "" {
		out.fail("assignment for %s: %s", id, assignErr)
	}
	for _, p := range problems {
		out.fail("%s", p)
	}
	if len(tasks) == 0 && assignErr == "" && !sv.done.Load() {
		out.emptyAssigns++
	}
	out.handed += len(tasks)
	nAcked := 0
	for _, st := range answers {
		if st.ok {
			out.log = append(out.log, st.a)
			out.acked++
			nAcked++
		}
	}
	if !measured {
		return
	}
	if assignErr == "" && len(tasks) > 0 {
		out.assignMS = append(out.assignMS, assignMS)
		if sv.spec.loop == loopOpen {
			sv.sliceMS[slice] = append(sv.sliceMS[slice], assignMS)
		} else {
			sv.sliceMS[slice] = append(sv.sliceMS[slice], ms(wall))
		}
	}
	for _, st := range answers {
		if st.ok {
			out.answerMS = append(out.answerMS, st.ms)
		}
	}
	if resultsMS > 0 {
		out.inflightMS = append(out.inflightMS, resultsMS)
	}
	if sv.spec.loop == loopOpen {
		out.sendLagMS = append(out.sendLagMS, lag)
	}

}

// overheadPct compares the traced and the untraced blocks of one traced run:
// the median wall time of a session on the closed loops, the median
// assignment latency from its due time on the open loop, as the share the
// traced blocks are worse by. Medians, because the few sessions that meet a
// fit or follow a probe pause are a hundred times longer than the rest and
// fall into one kind of block or the other by position, not by tracing.
func (sv *serving) overheadPct() float64 {
	off, on := median(sv.sliceMS[0]), median(sv.sliceMS[1])
	if off <= 0 {
		return 0
	}
	return 100 * (on - off) / off
}

// settle waits until the server's published fit covers every answer it
// holds and no fit or migration is running.
func (sv *serving) settle(ctx context.Context) (*health, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		h, err := sv.c.health(ctx)
		if err != nil {
			return nil, err
		}
		if h.Fit == nil {
			return nil, fmt.Errorf("server reports no fit pipeline; the workload needs -bg-fit")
		}
		idle := !h.Fit.InFlight && h.Fit.QueueDepth == 0 && (h.Elastic == nil || !h.Elastic.Migrating)
		if idle && int(h.Fit.CoveredAnswers) == h.Answers && h.Answers >= sv.out.acked {
			return h, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fit pipeline did not settle in 60s: %+v", *h.Fit)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}
