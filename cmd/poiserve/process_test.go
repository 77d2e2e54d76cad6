//go:build unix

package main

// Process-level tests: the real poiserve — this test binary re-executed into
// main() — started with flags, driven over HTTP, signalled, and restarted
// with -restore. They carry the checks that used to run only in CI as shell
// smokes, so they run in tier-1 and under -race (the spawned server is then
// race-instrumented too) on every change:
//
//   - TestRollingRestartLosesNoAckedAnswer: a closed-loop crowd (request
//     tasks → answer → repeat, the paper's Section V-A protocol) keeps
//     running while the server is checkpointed, SIGTERMed (graceful drain,
//     final checkpoint) and restarted with -restore. Not one acknowledged
//     answer may be lost, with inline fits and with -bg-fit (the drain must
//     fold outstanding answers into a final generation before the final
//     checkpoint). Before the signal the client's own request counts must
//     equal poiserve_http_requests_total on GET /metrics exactly — the test
//     owns the sole client, so the observability pipeline has to measure the
//     reality the client experienced.
//   - TestCheckpointKillRestoreIdentical: boot on a demo world, drive the
//     core endpoints (register a task and a worker, request assignments,
//     submit answers, read results and a worker estimate, check error
//     mapping), POST /checkpoint, kill the server, restart it with -restore
//     and no -demo, and require /results and the /healthz accounting
//     (answers, pending, budget) to be byte-identical, once per engine shape
//     — Restore publishes the restored generation on every one of them, and
//     /results after the restart is that generation. SIGKILL writes no final
//     checkpoint, so there the explicit one alone must restore. The rows
//     started with -trace also check the flag's wiring: a client-supplied
//     X-Poilabel-Trace ID is echoed and retrievable from GET /debug/traces.
//
// Wall-clock (throughput, latency, tracing overhead) is not asserted here:
// go run ./benchmark measures it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"poilabel"
	"poilabel/internal/crowd"
	"poilabel/internal/model"
	"poilabel/internal/trace"
)

// serverEnv marks a re-execution of the test binary as the server.
const serverEnv = "POISERVE_PROCESS_TEST_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(serverEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The demo world every test server seeds; crowd.DemoWorld with the same
// numbers regenerates it client-side (what seedDemoWorld registers).
const (
	worldWorkers = 16
	worldTasks   = 1000
	worldSeed    = 7
)

var demoFlags = []string{"-demo", strconv.Itoa(worldWorkers), "-demo-tasks", strconv.Itoa(worldTasks), "-seed", strconv.Itoa(worldSeed)}

const shutdownTimeout = 5 * time.Second

// server is one running poiserve process.
type server struct {
	base string
	cmd  *exec.Cmd
	done chan error // receives cmd.Wait's result once
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startServer runs poiserve on addr with flags and returns once /healthz
// answers. The process is killed when the test ends; its log is shown if the
// test failed.
func startServer(t *testing.T, addr string, flags ...string) *server {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", addr, "-shutdown-timeout", shutdownTimeout.String()}, flags...)...)
	cmd.Env = append(os.Environ(), serverEnv+"=1")
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &server{base: "http://" + addr, cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // the only error is "already exited"
		if t.Failed() {
			t.Logf("poiserve %s:\n%s", strings.Join(flags, " "), logs.String())
		}
	})
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("poiserve did not come up on %s", addr)
		}
	}
}

// kill sends sig and waits for the process to exit. A SIGTERMed server must
// drain and exit cleanly inside its -shutdown-timeout.
func (s *server) kill(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := s.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-s.done:
		if sig == syscall.SIGTERM && err != nil {
			t.Fatalf("poiserve exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(shutdownTimeout + time.Second):
		t.Fatalf("poiserve still running %s after %v", shutdownTimeout+time.Second, sig)
	}
}

// client keeps one connection per crowd client alive and bounds a hung server.
var client = &http.Client{
	Timeout:   10 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 32},
}

// call issues one JSON request and returns the status, body and headers.
func call(method, url string, body any, hdr ...string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header, err
}

// mustCall is call for the test goroutine: a transport error or a status
// other than want fails the test.
func mustCall(t *testing.T, want int, method, url string, body any, hdr ...string) ([]byte, http.Header) {
	t.Helper()
	status, raw, h, err := call(method, url, body, hdr...)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if status != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, status, want, raw)
	}
	return raw, h
}

type assignmentsBody struct {
	Assignments map[string][]string `json:"assignments"`
}

type healthBody struct {
	OK      bool   `json:"ok"`
	Engine  string `json:"engine"`
	Tasks   int    `json:"tasks"`
	Workers int    `json:"workers"`
	Answers int64  `json:"answers"`
}

func health(t *testing.T, base string) healthBody {
	t.Helper()
	raw, _ := mustCall(t, http.StatusOK, http.MethodGet, base+"/healthz", nil)
	var h healthBody
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// requestTotals reads the server's own count of accepted answers and served
// assignment rounds (poiserve_http_requests_total) off one /metrics scrape.
func requestTotals(t *testing.T, base string) (answers202, assigns200 int64) {
	t.Helper()
	raw, _ := mustCall(t, http.StatusOK, http.MethodGet, base+"/metrics", nil)
	for _, line := range strings.Split(string(raw), "\n") {
		for series, n := range map[string]*int64{
			`poiserve_http_requests_total{endpoint="answers",code="202"} `:     &answers202,
			`poiserve_http_requests_total{endpoint="assignments",code="200"} `: &assigns200,
		} {
			if rest, ok := strings.CutPrefix(line, series); ok {
				var err error
				if *n, err = strconv.ParseInt(rest, 10, 64); err != nil {
					t.Fatalf("bad counter line %q: %v", line, err)
				}
			}
		}
	}
	return answers202, assigns200
}

// simCrowd is a closed-loop crowd over the demo world: each client is one
// worker identity looping request tasks → answer each. Transport errors (the
// restart window) are retried; anything else that is not a success counts as
// a failure.
type simCrowd struct {
	base string
	// gate is read-held for the length of a session, so write-locking it is a
	// barrier: every request has been answered and none is in flight.
	gate sync.RWMutex
	stop atomic.Bool
	wg   sync.WaitGroup

	assigns200 atomic.Int64 // POST /assignments answered 200
	answers202 atomic.Int64 // POST /answers answered 202
	acked      atomic.Int64 // answers the server holds: 202s plus retried duplicates
	retries    atomic.Int64
	failures   atomic.Int64
	failure    atomic.Pointer[string] // the first one
}

func startCrowd(t *testing.T, base string, clients int) *simCrowd {
	t.Helper()
	data, workers, profiles, err := crowd.DemoWorld(worldTasks, worldWorkers, worldSeed)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := crowd.NewSimulator(data, workers, profiles, worldSeed+2)
	if err != nil {
		t.Fatal(err)
	}
	c := &simCrowd{base: base}
	for w := 0; w < clients; w++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			own := sim.Clone(worldSeed + 100 + int64(w)) // a simulator's stream is not goroutine-safe
			for !c.stop.Load() {
				c.gate.RLock()
				c.session(own, w)
				c.gate.RUnlock()
			}
		}()
	}
	return c
}

func (c *simCrowd) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.failures.Add(1)
	c.failure.CompareAndSwap(nil, &msg)
}

// post retries transport errors for up to ~10 s (once the crowd is stopping,
// briefly) and reports whether it had to.
func (c *simCrowd) post(path string, body any) (status int, raw []byte, retried bool) {
	for attempt := 0; attempt < 500 && !(c.stop.Load() && attempt > 2); attempt++ {
		status, raw, _, err := call(http.MethodPost, c.base+path, body)
		if err == nil {
			return status, raw, retried
		}
		retried = true
		c.retries.Add(1)
		time.Sleep(20 * time.Millisecond)
	}
	c.fail("POST %s: server unreachable after retries", path)
	return 0, nil, retried
}

func (c *simCrowd) session(sim *crowd.Simulator, w int) {
	id := "w" + strconv.Itoa(w)
	status, raw, _ := c.post("/assignments", map[string]any{"workers": []string{id}})
	if status != http.StatusOK {
		c.fail("POST /assignments: status %d: %s", status, raw)
		return
	}
	c.assigns200.Add(1)
	var resp assignmentsBody
	if err := json.Unmarshal(raw, &resp); err != nil {
		c.fail("POST /assignments: %v", err)
		return
	}
	if len(resp.Assignments[id]) == 0 {
		time.Sleep(5 * time.Millisecond) // supply dry for this worker; check back later
		return
	}
	for _, task := range resp.Assignments[id] {
		ti, err := strconv.Atoi(strings.TrimPrefix(task, "t"))
		if err != nil {
			c.fail("assigned unknown task %q", task)
			continue
		}
		ans := sim.Answer(model.WorkerID(w), model.TaskID(ti))
		status, raw, retried := c.post("/answers", map[string]any{"worker": id, "task": task, "selected": ans.Selected})
		switch {
		case status == http.StatusAccepted:
			c.answers202.Add(1)
			c.acked.Add(1)
		case status == http.StatusConflict && retried && bytes.Contains(raw, []byte("duplicate answer")):
			// The attempt whose response was lost had landed: acked, once.
			c.acked.Add(1)
		default:
			c.fail("POST /answers: status %d: %s", status, raw)
		}
	}
}

// countersMatch takes a barrier — no request in flight — and requires the
// server's request counters to equal the client's own. The server counts a
// request just after writing its response, so the last one gets a moment.
func (c *simCrowd) countersMatch(t *testing.T) {
	t.Helper()
	c.gate.Lock()
	defer c.gate.Unlock()
	answers, assigns := c.answers202.Load(), c.assigns200.Load()
	if answers == 0 || c.retries.Load() != 0 {
		t.Fatalf("before the restart: %d answers acked, %d transport retries", answers, c.retries.Load())
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		gotAns, gotAsg := requestTotals(t, c.base)
		if gotAns == answers && gotAsg == assigns {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics counts %d answers 202 and %d assignments 200; the client saw %d and %d", gotAns, gotAsg, answers, assigns)
		}
	}
}

func TestRollingRestartLosesNoAckedAnswer(t *testing.T) {
	for _, row := range []struct {
		name string
		fit  []string
	}{
		{"inline", []string{"-fullem", "100"}},
		{"bg-fit", []string{"-bg-fit", "250ms", "-bg-min-answers", "64"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			addr := freeAddr(t)
			snap := filepath.Join(t.TempDir(), "poiserve.snap")
			flags := append([]string{"-checkpoint", snap}, row.fit...)
			srv := startServer(t, addr, append(flags, demoFlags...)...)
			c := startCrowd(t, srv.base, 8)
			t.Cleanup(func() { c.stop.Store(true); c.wg.Wait() })

			time.Sleep(time.Second)

			c.countersMatch(t)

			// The restart, with requests in flight again.
			time.Sleep(50 * time.Millisecond)
			mustCall(t, http.StatusOK, http.MethodPost, srv.base+"/checkpoint", nil)
			srv.kill(t, syscall.SIGTERM)
			ackedAtRestart := c.acked.Load()
			srv = startServer(t, addr, append(flags, "-restore", snap)...)

			time.Sleep(500 * time.Millisecond)
			c.stop.Store(true)
			c.wg.Wait()

			if n := c.failures.Load(); n != 0 {
				t.Errorf("%d requests failed other than by transport error; first: %s", n, *c.failure.Load())
			}
			acked := c.acked.Load()
			t.Logf("%d answers acked, %d of them before the restart; %d transport retries", acked, ackedAtRestart, c.retries.Load())
			if acked <= ackedAtRestart {
				t.Errorf("no answer acked after the restart (%d before, %d at the end)", ackedAtRestart, acked)
			}
			if held := health(t, srv.base).Answers; held != acked {
				t.Errorf("lost %d acked answers across the restart: server holds %d, clients were acked %d (%d transport retries)",
					acked-held, held, acked, c.retries.Load())
			}
		})
	}
}

func TestCheckpointKillRestoreIdentical(t *testing.T) {
	data, _, _, err := crowd.DemoWorld(worldTasks, worldWorkers, worldSeed)
	if err != nil {
		t.Fatal(err)
	}
	spot := data.Tasks[0].Location
	for _, engine := range [][]string{
		{"-engine", "single", "-trace"},
		{"-engine", "sharded", "-shards", "4"},
		{"-engine", "federated", "-cities", "2", "-shards", "2"},
	} {
		for name, sig := range map[string]syscall.Signal{"SIGTERM": syscall.SIGTERM, "SIGKILL": syscall.SIGKILL} {
			t.Run(engine[1]+"/"+name, func(t *testing.T) {
				t.Parallel()
				addr := freeAddr(t)
				snap := filepath.Join(t.TempDir(), "poiserve.snap")
				flags := append([]string{"-checkpoint", snap}, engine...)
				srv := startServer(t, addr, append(append(flags, "-budget", "200"), demoFlags...)...)

				if h := health(t, srv.base); !h.OK || h.Engine != engine[1] || h.Tasks != worldTasks || h.Workers != worldWorkers {
					t.Fatalf("/healthz on the demo world: %+v", h)
				}
				// Dynamic registration, then one assignment round.
				mustCall(t, http.StatusCreated, http.MethodPost, srv.base+"/tasks",
					map[string]any{"id": "extra-task", "task": poilabel.TaskSpec{Location: spot, Labels: []string{"a", "b"}}})
				mustCall(t, http.StatusCreated, http.MethodPost, srv.base+"/workers",
					map[string]any{"id": "extra-worker", "worker": poilabel.WorkerSpec{Locations: []poilabel.Point{spot}}})
				round := map[string]any{"workers": []string{"w0", "w1", "extra-worker"}}
				var hdr []string
				if slices.Contains(engine, "-trace") {
					hdr = []string{trace.Header, "deadbeef"}
				}
				raw, respHdr := mustCall(t, http.StatusOK, http.MethodPost, srv.base+"/assignments", round, hdr...)
				var asg assignmentsBody
				if err := json.Unmarshal(raw, &asg); err != nil {
					t.Fatal(err)
				}
				if len(asg.Assignments["w0"]) == 0 {
					t.Fatalf("empty assignment round: %s", raw)
				}
				if hdr != nil {
					id := trace.FormatID(0xdeadbeef)
					if got := respHdr.Get(trace.Header); got != id {
						t.Errorf("echoed trace ID %q, want the client's %q", got, id)
					}
					if raw, _ := mustCall(t, http.StatusOK, http.MethodGet, srv.base+"/debug/traces", nil); !bytes.Contains(raw, []byte(`"id":"`+id+`"`)) {
						t.Errorf("client-supplied trace %s not on /debug/traces: %s", id, raw)
					}
				}
				// A solicited answer and an unsolicited one.
				solicited := asg.Assignments["w0"][0]
				ti, err := strconv.Atoi(strings.TrimPrefix(solicited, "t"))
				if err != nil {
					t.Fatalf("assigned unknown task %q", solicited)
				}
				mustCall(t, http.StatusAccepted, http.MethodPost, srv.base+"/answers",
					map[string]any{"worker": "w0", "task": solicited, "selected": make([]bool, len(data.Tasks[ti].Labels))})
				mustCall(t, http.StatusAccepted, http.MethodPost, srv.base+"/answers",
					map[string]any{"worker": "extra-worker", "task": "extra-task", "selected": []bool{true, false}})

				// Results cover the registered world; worker introspection and
				// typed error mapping work.
				raw, _ = mustCall(t, http.StatusOK, http.MethodGet, srv.base+"/results", nil)
				if n := bytes.Count(raw, []byte(`"task":`)); n != worldTasks+1 {
					t.Errorf("/results covers %d tasks, want %d", n, worldTasks+1)
				}
				raw, _ = mustCall(t, http.StatusOK, http.MethodGet, srv.base+"/workers/extra-worker", nil)
				var info poilabel.WorkerInfo
				if err := json.Unmarshal(raw, &info); err != nil || info.Quality <= 0 || info.Quality >= 1 {
					t.Errorf("worker estimate %s (%v): want a quality in (0, 1)", raw, err)
				}
				mustCall(t, http.StatusNotFound, http.MethodGet, srv.base+"/workers/ghost", nil)

				// Durability: checkpoint, kill, restart with -restore and no
				// -demo, compare state.
				preResults, _ := mustCall(t, http.StatusOK, http.MethodGet, srv.base+"/results", nil)
				preHealth, _ := mustCall(t, http.StatusOK, http.MethodGet, srv.base+"/healthz", nil)
				raw, _ = mustCall(t, http.StatusOK, http.MethodPost, srv.base+"/checkpoint", nil)
				var ck struct {
					Bytes int64 `json:"bytes"`
				}
				if err := json.Unmarshal(raw, &ck); err != nil || ck.Bytes <= 0 {
					t.Fatalf("POST /checkpoint reported no byte count: %s", raw)
				}
				if st, err := os.Stat(snap); err != nil || st.Size() != ck.Bytes {
					t.Fatalf("snapshot file: %v, want %d bytes (%v)", st, ck.Bytes, err)
				}
				srv.kill(t, sig)
				srv = startServer(t, addr, append(flags, "-restore", snap)...)

				postResults, _ := mustCall(t, http.StatusOK, http.MethodGet, srv.base+"/results", nil)
				postHealth, _ := mustCall(t, http.StatusOK, http.MethodGet, srv.base+"/healthz", nil)
				if !bytes.Equal(preResults, postResults) {
					t.Error("/results changed across the restart")
				}
				if !bytes.Equal(preHealth, postHealth) {
					t.Errorf("/healthz accounting changed across the restart:\nbefore %safter  %s", preHealth, postHealth)
				}
				// The restored server keeps serving.
				mustCall(t, http.StatusOK, http.MethodPost, srv.base+"/assignments", map[string]any{"workers": []string{"w2", "w3"}})
			})
		}
	}
}
