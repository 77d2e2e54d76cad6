package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"poilabel"
	"poilabel/internal/metrics"
	"poilabel/internal/serve"
)

// reqHeader carries the driver's request id to the in-process server of a
// traced run, joining the client span and the server span of one request.
const reqHeader = "X-Bench-Req"

// buildDir holds what building leaves behind; .gitignore names it.
const buildDir = ".bench_build"

// target is a running server under test with its world registered.
type target struct {
	base string
	// svc is the live service of an in-process (traced) target, nil for a
	// spawned poiserve.
	svc *poilabel.Service
	// peakRSS reads the server's peak resident set in MB.
	peakRSS func() (float64, error)
	// maxConns is the largest number of connections the in-process server
	// had open at once; 0 for a spawned poiserve.
	maxConns func() int
	stop     func()
}

// repoRoot is the directory of the module's go.mod: the working directory
// when the driver is run as documented, its parent under `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod in the working directory or above it; run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/poiserve from the checked-out tree.
func buildServer(ctx context.Context) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(root, buildDir, "poiserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/poiserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/poiserve: %w\n%s", err, out)
	}
	return bin, nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts poiserve with the workload's flags and returns once it
// listens. Nothing is registered yet.
func spawn(ctx context.Context, bin string, s spec) (*target, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, s.flags(addr)...)
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start poiserve: %w", err)
	}
	t := &target{
		base:     "http://" + addr,
		peakRSS:  func() (float64, error) { return peakRSSMB(cmd.Process.Pid) },
		maxConns: func() int { return 0 },
		stop: func() {
			_ = cmd.Process.Kill() // the only error is "already exited"
			_ = cmd.Wait()         // a killed process always reports one
		},
	}
	if err := awaitListening(ctx, addr); err != nil {
		t.stop()
		return nil, fmt.Errorf("poiserve did not come up: %w\n%s", err, logs.String())
	}
	return t, nil
}

func awaitListening(ctx context.Context, addr string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// inProcess serves the workload's configuration from this process: the same
// Service options poiserve would build, behind serve.NewHandler, behind a
// middleware that records a serve.<op> span for every request carrying an id.
func inProcess(s spec, rec *recorder) (*target, error) {
	svc, err := poilabel.NewService(s.options()...)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	h := serve.NewHandler(svc, serve.WithMetrics(serve.NewMetrics(reg, svc)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var open, peak atomic.Int64
	srv := &http.Server{
		Handler: spanMiddleware(h, rec),
		ConnState: func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				n := open.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
			case http.StateClosed, http.StateHijacked:
				open.Add(-1)
			}
		},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always ErrServerClosed after stop
	}()
	return &target{
		base:     "http://" + ln.Addr().String(),
		svc:      svc,
		peakRSS:  func() (float64, error) { return peakRSSMB(os.Getpid()) },
		maxConns: func() int { return int(peak.Load()) },
		stop: func() {
			_ = srv.Close()
			<-done
			// Stopping must work after the run's context is cancelled too.
			//lint:ignore ctxflow shutdown path: the run's context may already be cancelled
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = svc.Close(ctx) // a fit cut short at exit loses nothing we still read
		},
	}, nil
}

// spanMiddleware records serve.<op> around the handler for requests that
// carry a request id.
func spanMiddleware(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		rec.add("serve."+opName(r.Method, r.URL.Path), start, time.Now(), -1, req)
	})
}

// opName maps a request onto the driver's four operations.
func opName(method, path string) string {
	switch {
	case path == "/assignments":
		return "assign"
	case path == "/answers":
		return "answer"
	case path == "/results":
		return "results"
	case strings.HasPrefix(path, "/workers/") && method == http.MethodGet:
		return "worker"
	}
	return "other"
}

// peakRSSMB reads VmHWM of a process.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
