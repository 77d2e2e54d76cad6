package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"poilabel"
	"poilabel/internal/core"
	"poilabel/internal/crowd"
	"poilabel/internal/metrics"
	"poilabel/internal/model"
	"poilabel/internal/serve"
	"poilabel/internal/trace"
)

// demoCrowd is a crowd.DemoWorld registered on a service under t<i>/w<i>,
// with the simulator that answers for it.
type demoCrowd struct {
	svc            *poilabel.Service
	sim            *crowd.Simulator
	tasks, workers int
}

// seedDemoWorld registers crowd.DemoWorld(tasks, workers) — the world poiserve
// -demo and the repository benchmark serve — and submits perTask simulated
// answers for every task.
func seedDemoWorld(tb testing.TB, svc *poilabel.Service, tasks, workers, perTask int) *demoCrowd {
	tb.Helper()
	data, ws, profiles, err := crowd.DemoWorld(tasks, workers, 7)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := crowd.NewSimulator(data, ws, profiles, 11)
	if err != nil {
		tb.Fatal(err)
	}
	for i, task := range data.Tasks {
		spec := poilabel.TaskSpec{Name: task.Name, Location: task.Location, Labels: task.Labels, Reviews: task.Reviews}
		if err := svc.AddTask(fmt.Sprintf("t%d", i), spec); err != nil {
			tb.Fatal(err)
		}
	}
	for i, w := range ws {
		if err := svc.AddWorker(fmt.Sprintf("w%d", i), poilabel.WorkerSpec{Name: w.Name, Locations: w.Locations}); err != nil {
			tb.Fatal(err)
		}
	}
	c := &demoCrowd{svc: svc, sim: sim, tasks: len(data.Tasks), workers: len(ws)}
	for k := 0; k < perTask; k++ {
		for ti := 0; ti < c.tasks; ti++ {
			if err := c.answer(ti, k); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return c
}

// answer submits task ti's k-th answer; each (ti, k < workers) is a distinct
// pair.
func (c *demoCrowd) answer(ti, k int) error {
	wi := (ti + k) % c.workers
	a := c.sim.Answer(model.WorkerID(wi), model.TaskID(ti))
	return c.svc.SubmitAnswer(fmt.Sprintf("w%d", wi), fmt.Sprintf("t%d", ti), a.Selected)
}

// engineShapes and fitPlacements span every service a /results body can come
// from: every shape, with fits triggered by callers ("inline") and by a
// scheduler ("pipeline") whose cadence is out of reach, so only Fit publishes.
var (
	engineShapes = []struct {
		name string
		opts []poilabel.ServiceOption
	}{
		{"single", nil},
		{"sharded", []poilabel.ServiceOption{poilabel.WithEngine(poilabel.EngineSharded), poilabel.WithShards(4)}},
		{"federated", []poilabel.ServiceOption{poilabel.WithEngine(poilabel.EngineFederated), poilabel.WithCities(2), poilabel.WithShards(2)}},
	}
	fitPlacements = []struct {
		name string
		opts []poilabel.ServiceOption
	}{
		{"inline", []poilabel.ServiceOption{poilabel.WithFullEMInterval(0)}},
		{"pipeline", []poilabel.ServiceOption{poilabel.WithBackgroundFit(time.Hour, 1<<30)}},
	}
)

func newService(tb testing.TB, opts ...poilabel.ServiceOption) *poilabel.Service {
	tb.Helper()
	svc, err := poilabel.NewService(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Close(ctx); err != nil {
			tb.Errorf("Close: %v", err)
		}
	})
	return svc
}

// encodeResults is the reference body: encoding/json over Results().
func encodeResults(tb testing.TB, svc *poilabel.Service) []byte {
	tb.Helper()
	results, err := svc.Results(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(struct {
		Results []poilabel.TaskResult `json:"results"`
	}{results}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// settledResults returns the current generation and the reference encoding of
// its results, once no publication slipped between reading the one and the
// other (without a scheduler a read of a dirty service fits and publishes).
func settledResults(tb testing.TB, svc *poilabel.Service) (uint64, []byte) {
	tb.Helper()
	for {
		gen := svc.FitStats().Generation
		body := encodeResults(tb, svc)
		if svc.FitStats().Generation == gen {
			return gen, body
		}
	}
}

// getResults reads GET /results over real HTTP, returning the generation the
// response is stamped with and its body.
func getResults(url string) (uint64, []byte, error) {
	resp, err := http.Get(url + "/results")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("GET /results: status %d: %s", resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		return 0, nil, fmt.Errorf("Content-Length %q on a %d-byte body", cl, len(body))
	}
	if resp.Header.Get("X-Poilabel-Staleness-Seconds") == "" {
		return 0, nil, fmt.Errorf("no X-Poilabel-Staleness-Seconds header")
	}
	gen, err := strconv.ParseUint(resp.Header.Get("X-Poilabel-Generation"), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("X-Poilabel-Generation: %v", err)
	}
	return gen, body, nil
}

// readSettled reads GET /results with the service between publications: the
// generation, the reference encoding of its results, and what the read was
// stamped with and served. A pipeline may publish once more behind a barrier
// that already returned; a round such a publication landed in is repeated.
func readSettled(tb testing.TB, svc *poilabel.Service, url string) (gen uint64, want []byte, stamped uint64, body []byte) {
	tb.Helper()
	for {
		gen, want := settledResults(tb, svc)
		stamped, body, err := getResults(url)
		if err != nil {
			tb.Fatal(err)
		}
		if svc.FitStats().Generation == gen {
			return gen, want, stamped, body
		}
	}
}

// TestResultsBodyIsTheEncodersBytes pins that serving a generation's own
// encoding changed no byte on the wire: on every engine shape and under both
// fit triggers the body is what json.NewEncoder writes for Results() of the
// generation the headers name, first read and later reads alike.
func TestResultsBodyIsTheEncodersBytes(t *testing.T) {
	for _, shape := range engineShapes {
		for _, placement := range fitPlacements {
			t.Run(shape.name+"/"+placement.name, func(t *testing.T) {
				svc := newService(t, append(append([]poilabel.ServiceOption{}, shape.opts...), placement.opts...)...)
				seedDemoWorld(t, svc, 120, 12, 3)
				if _, err := svc.Fit(context.Background()); err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(serve.NewHandler(svc))
				defer srv.Close()
				for read := 0; read < 3; read++ {
					wantGen, want, gen, got := readSettled(t, svc, srv.URL)
					if gen != wantGen {
						t.Fatalf("read %d stamped generation %d, service is at %d", read, gen, wantGen)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("read %d: body differs from encoding/json over Results():\n%s\nvs\n%s", read, got, want)
					}
				}
			})
		}
	}
}

// TestResultsCoherentUnderPublication hammers GET /results while answers
// arrive and fits publish. Every body must decode and cover every task, no
// reader may see the generation number go backwards, and whenever the
// generation a response names is one whose results the writer pinned down,
// the body must be those results' encoding: a body and a header from two
// different generations, or a body that outlives its generation, fails here.
func TestResultsCoherentUnderPublication(t *testing.T) {
	for _, placement := range []struct {
		name string
		opts []poilabel.ServiceOption
	}{
		{"inline", []poilabel.ServiceOption{poilabel.WithFullEMInterval(7)}},
		{"pipeline", []poilabel.ServiceOption{poilabel.WithBackgroundFit(2*time.Millisecond, 3)}},
	} {
		t.Run(placement.name, func(t *testing.T) {
			const tasks, readers, rounds = 40, 4, 12
			svc := newService(t, placement.opts...)
			world := seedDemoWorld(t, svc, tasks, 16, 2)
			srv := httptest.NewServer(serve.NewHandler(svc))
			defer srv.Close()

			type read struct {
				gen  uint64
				body []byte
			}
			var (
				wg    sync.WaitGroup
				stop  = make(chan struct{})
				reads [readers][]read
			)
			stopReaders := sync.OnceFunc(func() {
				close(stop)
				wg.Wait()
			})
			defer stopReaders()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var last uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						gen, body, err := getResults(srv.URL)
						if err != nil {
							t.Error(err)
							return
						}
						if gen < last {
							t.Errorf("reader %d saw generation %d after %d", r, gen, last)
							return
						}
						last = gen
						reads[r] = append(reads[r], read{gen, body})
					}
				}(r)
			}

			// The writer: a batch of answers, a barrier, and — with nothing
			// left to publish until its next answer — the generation's
			// reference encoding, which its own read must match at once.
			pinned := make(map[uint64][]byte)
			for round := 0; round < rounds && !t.Failed(); round++ {
				for i := 0; i < 5; i++ {
					n := round*5 + i
					if err := world.answer(n%tasks, 2+n/tasks); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := svc.Fit(context.Background()); err != nil {
					t.Fatal(err)
				}
				gen, want, stamped, body := readSettled(t, svc, srv.URL)
				pinned[gen] = want
				if stamped != gen || !bytes.Equal(body, want) {
					t.Fatalf("round %d: generation %d settled, read stamped %d; body is its results: %t",
						round, gen, stamped, bytes.Equal(body, want))
				}
			}
			stopReaders()

			total, checked := 0, 0
			for r := range reads {
				for _, rd := range reads[r] {
					total++
					var decoded struct {
						Results []poilabel.TaskResult `json:"results"`
					}
					if err := json.Unmarshal(rd.body, &decoded); err != nil {
						t.Fatalf("reader %d, generation %d: %v", r, rd.gen, err)
					}
					if len(decoded.Results) != tasks {
						t.Fatalf("reader %d, generation %d: %d tasks, want %d", r, rd.gen, len(decoded.Results), tasks)
					}
					if want, ok := pinned[rd.gen]; ok {
						checked++
						if !bytes.Equal(rd.body, want) {
							t.Fatalf("reader %d: body stamped generation %d is not that generation's results", r, rd.gen)
						}
					}
				}
			}
			if total == 0 {
				t.Fatal("no reader completed a read")
			}
			t.Logf("%d reads, %d against a pinned generation, %d generations pinned", total, checked, len(pinned))
		})
	}
}

// TestResultsSingleFlight pins one encode per generation, read off the
// counter /metrics exposes: many concurrent first readers of a fresh
// generation cause exactly one, later readers none, and the next generation
// one more.
func TestResultsSingleFlight(t *testing.T) {
	const concurrent = 16
	svc := newService(t, poilabel.WithFullEMInterval(0))
	world := seedDemoWorld(t, svc, 300, 12, 2)
	h := serve.NewHandler(svc, serve.WithMetrics(serve.NewMetrics(metrics.NewRegistry(), svc)))
	srv := httptest.NewServer(h)
	defer srv.Close()
	encodes := func() float64 {
		return metricValue(t, scrape(t, srv), "poiserve_results_encodes_total", "")
	}
	if n := encodes(); n != 0 {
		t.Fatalf("%v encodes before the first read", n)
	}
	for gen := 1; gen <= 3; gen++ {
		// A new answer, so the barrier publishes a generation nobody has read.
		if err := world.answer(gen, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Fit(context.Background()); err != nil {
			t.Fatal(err)
		}
		var (
			wg     sync.WaitGroup
			start  = make(chan struct{})
			bodies [concurrent][]byte
		)
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/results", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET /results: status %d", rec.Code)
				}
				bodies[i] = rec.Body.Bytes()
			}(i)
		}
		close(start)
		wg.Wait()
		if n := encodes(); n != float64(gen) {
			t.Fatalf("generation %d: %v encodes after %d concurrent first reads, want %d", gen, n, concurrent, gen)
		}
		want := encodeResults(t, svc)
		for i, b := range bodies {
			if !bytes.Equal(b, want) {
				t.Fatalf("generation %d: concurrent reader %d got a different body", gen, i)
			}
		}
		if _, _, err := getResults(srv.URL); err != nil {
			t.Fatal(err)
		}
		if n := encodes(); n != float64(gen) {
			t.Fatalf("generation %d: a warm read encoded again (%v encodes)", gen, n)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing but the status.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestWarmResultsReadAllocsDoNotGrowWithTasks pins that a read of a
// generation somebody already read does no per-task work: it allocates the
// same at 2 000 tasks as at 100.
func TestWarmResultsReadAllocsDoNotGrowWithTasks(t *testing.T) {
	warmAllocs := func(tasks int) float64 {
		svc := newService(t, poilabel.WithFullEMInterval(0))
		seedDemoWorld(t, svc, tasks, 10, 1)
		h := serve.NewHandler(svc)
		req := httptest.NewRequest(http.MethodGet, "/results", nil)
		w := &discardWriter{hdr: make(http.Header)}
		h.ServeHTTP(w, req) // the generation's one encode
		if w.status != http.StatusOK {
			t.Fatalf("GET /results: status %d", w.status)
		}
		return testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
	}
	small, large := warmAllocs(100), warmAllocs(2000)
	if large > small {
		t.Fatalf("a warm read allocates %v times at 2000 tasks, %v at 100", large, small)
	}
	t.Logf("warm read: %v allocs at 100 tasks, %v at 2000", small, large)
}

// TestResultsEncodeFailureIs500 pins that an encoder error is reported before
// the first byte is sent. A NaN smoothing constant gets past the model's
// range checks (NaN < 0 is false) and turns every posterior into NaN, which
// encoding/json refuses; the parent's streamed response was a 200 cut off
// mid-body.
func TestResultsEncodeFailureIs500(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Smoothing = math.NaN()
	svc := newService(t, poilabel.WithModelConfig(cfg))
	seedSmallWorld(t, svc)
	h := serve.NewHandler(svc)
	for read := 0; read < 2; read++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/results", nil))
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Fatalf("read %d: body %q is not an error body (%v)", read, rec.Body.String(), err)
		}
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("read %d: status %d, want 500 (%s)", read, rec.Code, body.Error)
		}
		if rec.Header().Get("X-Poilabel-Generation") != "" {
			t.Fatalf("read %d: an error response names a generation", read)
		}
	}
}

// TestResultsRequestTrace pins the results.request root: which generation was
// served, how many bytes, and whether this request ran the encode.
func TestResultsRequestTrace(t *testing.T) {
	tracer := trace.New(trace.Config{SlowThreshold: time.Hour})
	svc := newService(t, poilabel.WithTracer(tracer))
	seedSmallWorld(t, svc)
	srv := httptest.NewServer(serve.NewHandler(svc, serve.WithTracer(tracer)))
	defer srv.Close()

	gen, body, err := getResults(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := getResults(srv.URL); err != nil {
		t.Fatal(err)
	}
	var encoded []string
	for _, tr := range getTraces(t, srv, "?name=results").Traces {
		if tr.Root != "results.request" {
			t.Fatalf("trace root %q under the results prefix", tr.Root)
		}
		attrs := map[string]string{}
		for _, a := range tr.Spans[0].Attrs {
			attrs[a.K] = a.V
		}
		if attrs["generation"] != strconv.FormatUint(gen, 10) || attrs["bytes"] != strconv.Itoa(len(body)) || attrs["status"] != "200" {
			t.Fatalf("results.request attrs %v, want generation %d, bytes %d, status 200", attrs, gen, len(body))
		}
		encoded = append(encoded, attrs["encoded"])
	}
	if len(encoded) != 2 || (encoded[0] == "cold") == (encoded[1] == "cold") {
		t.Fatalf("encoded attributes %v, want one cold and one warm", encoded)
	}
}

// BenchmarkServeResults prices GET /results through the handler into a
// discarding writer at the repository benchmark's two serving sizes: cold is
// the first read of a generation (its one encode), warm every read after.
func BenchmarkServeResults(b *testing.B) {
	for _, tasks := range []int{2500, 8000} {
		svc := newService(b, poilabel.WithFullEMInterval(0))
		seedDemoWorld(b, svc, tasks, 100, 3)
		h := serve.NewHandler(svc)
		req := httptest.NewRequest(http.MethodGet, "/results", nil)
		w := &discardWriter{hdr: make(http.Header)}
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("GET /results: status %d", w.status)
		}
		size, err := strconv.ParseInt(w.hdr.Get("Content-Length"), 10, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cold/tasks=%d", tasks), func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Without a scheduler Fit always refits and publishes: a generation
				// nobody has read yet, the same labels as the last.
				if _, err := svc.Fit(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				h.ServeHTTP(w, req)
			}
		})
		b.Run(fmt.Sprintf("warm/tasks=%d", tasks), func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		})
	}
}
