package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"poilabel"
	"poilabel/internal/serve"
)

func newServer(t *testing.T, opts ...poilabel.ServiceOption) *httptest.Server {
	t.Helper()
	svc, err := poilabel.NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv
}

// do POSTs (or GETs when body is nil) and decodes the JSON response into out.
func do(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func postTask(t *testing.T, srv *httptest.Server, id string, x, y float64, labels []string) {
	t.Helper()
	body := map[string]any{"id": id, "task": poilabel.TaskSpec{Location: poilabel.Pt(x, y), Labels: labels}}
	if code := do(t, http.MethodPost, srv.URL+"/tasks", body, nil); code != http.StatusCreated {
		t.Fatalf("POST /tasks %s: status %d", id, code)
	}
}

func postWorker(t *testing.T, srv *httptest.Server, id string, x, y float64) {
	t.Helper()
	body := map[string]any{"id": id, "worker": poilabel.WorkerSpec{Locations: []poilabel.Point{poilabel.Pt(x, y)}}}
	if code := do(t, http.MethodPost, srv.URL+"/workers", body, nil); code != http.StatusCreated {
		t.Fatalf("POST /workers %s: status %d", id, code)
	}
}

func TestGatewayEndToEnd(t *testing.T) {
	srv := newServer(t, poilabel.WithBudget(100), poilabel.WithFullEMInterval(0))

	for i := 0; i < 6; i++ {
		postTask(t, srv, fmt.Sprintf("t%d", i), float64(i), 0, []string{"a", "b"})
	}
	postWorker(t, srv, "alice", 0, 1)
	postWorker(t, srv, "bob", 4, 1)

	// Assignment round.
	var ar struct {
		Assignments     map[string][]string `json:"assignments"`
		RemainingBudget int                 `json:"remaining_budget"`
	}
	code := do(t, http.MethodPost, srv.URL+"/assignments", map[string]any{"workers": []string{"alice", "bob"}}, &ar)
	if code != http.StatusOK {
		t.Fatalf("POST /assignments: status %d", code)
	}
	total := 0
	for _, ts := range ar.Assignments {
		total += len(ts)
	}
	if total == 0 {
		t.Fatal("empty assignment round")
	}
	if ar.RemainingBudget != 100-total {
		t.Fatalf("remaining budget %d after %d assignments", ar.RemainingBudget, total)
	}

	// Answer everything that was assigned.
	for w, ts := range ar.Assignments {
		for _, tid := range ts {
			body := map[string]any{"worker": w, "task": tid, "selected": []bool{true, false}}
			if code := do(t, http.MethodPost, srv.URL+"/answers", body, nil); code != http.StatusAccepted {
				t.Fatalf("POST /answers: status %d", code)
			}
		}
	}

	// Results cover every task.
	var rr struct {
		Results []poilabel.TaskResult `json:"results"`
	}
	if code := do(t, http.MethodGet, srv.URL+"/results", nil, &rr); code != http.StatusOK {
		t.Fatalf("GET /results: status %d", code)
	}
	if len(rr.Results) != 6 {
		t.Fatalf("results cover %d tasks, want 6", len(rr.Results))
	}
	for _, res := range rr.Results {
		if len(res.Prob) != 2 || len(res.Inferred) != 2 {
			t.Fatalf("malformed result %+v", res)
		}
	}

	// Worker introspection.
	var wi poilabel.WorkerInfo
	if code := do(t, http.MethodGet, srv.URL+"/workers/alice", nil, &wi); code != http.StatusOK {
		t.Fatalf("GET /workers/alice: status %d", code)
	}
	if wi.Quality <= 0 || wi.Quality >= 1 {
		t.Fatalf("worker quality = %v", wi.Quality)
	}

	// Health.
	var hr struct {
		OK      bool   `json:"ok"`
		Engine  string `json:"engine"`
		Tasks   int    `json:"tasks"`
		Workers int    `json:"workers"`
	}
	if code := do(t, http.MethodGet, srv.URL+"/healthz", nil, &hr); code != http.StatusOK {
		t.Fatal("healthz not OK")
	}
	if !hr.OK || hr.Engine != "single" || hr.Tasks != 6 || hr.Workers != 2 {
		t.Fatalf("health = %+v", hr)
	}
}

func TestGatewayErrorMapping(t *testing.T) {
	srv := newServer(t, poilabel.WithBudget(1))
	postTask(t, srv, "t0", 0, 0, []string{"a"})
	postWorker(t, srv, "w0", 0, 1)

	// Unknown IDs are 404.
	if code := do(t, http.MethodGet, srv.URL+"/workers/ghost", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown worker: status %d, want 404", code)
	}
	body := map[string]any{"worker": "w0", "task": "ghost", "selected": []bool{true}}
	if code := do(t, http.MethodPost, srv.URL+"/answers", body, nil); code != http.StatusNotFound {
		t.Errorf("unknown task: status %d, want 404", code)
	}

	// Duplicate registration is 409.
	dup := map[string]any{"id": "t0", "task": poilabel.TaskSpec{Location: poilabel.Pt(0, 0), Labels: []string{"a"}}}
	if code := do(t, http.MethodPost, srv.URL+"/tasks", dup, nil); code != http.StatusConflict {
		t.Errorf("duplicate task: status %d, want 409", code)
	}

	// Budget exhaustion is 402.
	req := map[string]any{"workers": []string{"w0"}}
	if code := do(t, http.MethodPost, srv.URL+"/assignments", req, nil); code != http.StatusOK {
		t.Fatalf("first assignment: status %d", code)
	}
	if code := do(t, http.MethodPost, srv.URL+"/assignments", req, nil); code != http.StatusPaymentRequired {
		t.Errorf("exhausted budget: status %d, want 402", code)
	}

	// Malformed JSON is 400.
	resp, err := http.Post(srv.URL+"/answers", "application/json", bytes.NewBufferString("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Wrong method is 405, unknown path 404.
	if code := do(t, http.MethodGet, srv.URL+"/answers", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /answers: status %d, want 405", code)
	}
	if code := do(t, http.MethodGet, srv.URL+"/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET /nope: status %d, want 404", code)
	}
}

func TestGatewayEmptyServiceConflict(t *testing.T) {
	srv := newServer(t)
	// Requesting assignments before any registration surfaces the typed
	// no-tasks error as 409.
	postWorker(t, srv, "w0", 0, 0)
	req := map[string]any{"workers": []string{"w0"}}
	if code := do(t, http.MethodPost, srv.URL+"/assignments", req, nil); code != http.StatusConflict {
		t.Errorf("empty service: status %d, want 409", code)
	}
}

// TestGatewayCheckpointRestart drives the full operational durability loop:
// seed a world over HTTP, POST /checkpoint, boot a second gateway restored
// from the snapshot file, and require identical /results and /healthz
// accounting — the in-process version of the smoke script's kill-and-restart.
func TestGatewayCheckpointRestart(t *testing.T) {
	path := t.TempDir() + "/gateway.snap"
	opts := []poilabel.ServiceOption{poilabel.WithBudget(50), poilabel.WithFullEMInterval(3)}

	svc, err := poilabel.NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ck := serve.NewCheckpointer(svc, path)
	srv := httptest.NewServer(serve.NewHandler(svc, serve.WithCheckpointer(ck)))
	t.Cleanup(srv.Close)

	for i := 0; i < 6; i++ {
		postTask(t, srv, fmt.Sprintf("t%d", i), float64(i), 0, []string{"a", "b"})
	}
	postWorker(t, srv, "alice", 0, 1)
	postWorker(t, srv, "bob", 4, 1)
	var ar struct {
		Assignments map[string][]string `json:"assignments"`
	}
	if code := do(t, http.MethodPost, srv.URL+"/assignments", map[string]any{"workers": []string{"alice", "bob"}}, &ar); code != http.StatusOK {
		t.Fatalf("POST /assignments: %d", code)
	}
	// Answer only alice's pairs; bob's stay pending across the restart.
	for _, tid := range ar.Assignments["alice"] {
		body := map[string]any{"worker": "alice", "task": tid, "selected": []bool{true, false}}
		if code := do(t, http.MethodPost, srv.URL+"/answers", body, nil); code != http.StatusAccepted {
			t.Fatalf("POST /answers: %d", code)
		}
	}

	var before json.RawMessage
	if code := do(t, http.MethodGet, srv.URL+"/results", nil, &before); code != http.StatusOK {
		t.Fatalf("GET /results: %d", code)
	}
	var beforeHealth json.RawMessage
	if code := do(t, http.MethodGet, srv.URL+"/healthz", nil, &beforeHealth); code != http.StatusOK {
		t.Fatal("healthz")
	}

	var cp struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
	}
	if code := do(t, http.MethodPost, srv.URL+"/checkpoint", nil, &cp); code != http.StatusOK {
		t.Fatalf("POST /checkpoint: %d", code)
	}
	if cp.Path != path || cp.Bytes == 0 {
		t.Fatalf("checkpoint response %+v", cp)
	}

	// "Restart": a fresh service restored from the file behind a new
	// gateway.
	svc2, err := poilabel.NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(serve.NewHandler(svc2))
	t.Cleanup(srv2.Close)

	var after json.RawMessage
	if code := do(t, http.MethodGet, srv2.URL+"/results", nil, &after); code != http.StatusOK {
		t.Fatalf("GET /results after restart: %d", code)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("results changed across restart:\n%s\nvs\n%s", before, after)
	}
	var afterHealth json.RawMessage
	if code := do(t, http.MethodGet, srv2.URL+"/healthz", nil, &afterHealth); code != http.StatusOK {
		t.Fatal("healthz after restart")
	}
	if !bytes.Equal(beforeHealth, afterHealth) {
		t.Fatalf("health accounting changed across restart:\n%s\nvs\n%s", beforeHealth, afterHealth)
	}
}

// TestGatewayCheckpointUnconfigured maps a /checkpoint on a server started
// without a checkpoint path to 409.
func TestGatewayCheckpointUnconfigured(t *testing.T) {
	srv := newServer(t)
	if code := do(t, http.MethodPost, srv.URL+"/checkpoint", nil, nil); code != http.StatusConflict {
		t.Fatalf("POST /checkpoint without config: status %d, want 409", code)
	}
	if code := do(t, http.MethodGet, srv.URL+"/checkpoint", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /checkpoint: status %d, want 405", code)
	}
}

// TestOversizedBodyRejected pins the body cap: a request over 1 MiB is
// refused with a 4xx on every POST endpoint that reads a body, and nothing
// of it reaches the service — not even a well-formed prefix.
func TestOversizedBodyRejected(t *testing.T) {
	srv := newServer(t, poilabel.WithBudget(100))
	postTask(t, srv, "t0", 0, 0, []string{"a", "b"})
	postWorker(t, srv, "alice", 0, 1)

	var before map[string]any
	if code := do(t, http.MethodGet, srv.URL+"/healthz", nil, &before); code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", code)
	}

	pad := strings.Repeat("x", 1<<20)
	bodies := map[string]string{
		// Valid JSON whose first field would register a task if the decoder
		// acted on a prefix; the padding pushes it over the cap.
		"/tasks":       `{"id":"big","task":{"location":{"x":1,"y":1},"labels":["a"],"name":"` + pad + `"}}`,
		"/workers":     `{"id":"big","worker":{"locations":[{"x":1,"y":1}],"name":"` + pad + `"}}`,
		"/answers":     `{"worker":"alice","task":"t0","selected":[true,false],"pad":"` + pad + `"}`,
		"/assignments": `{"workers":["alice","` + pad + `"]}`,
	}
	for path, body := range bodies {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}

	var after map[string]any
	if code := do(t, http.MethodGet, srv.URL+"/healthz", nil, &after); code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", code)
	}
	delete(before, "uptime_seconds")
	delete(after, "uptime_seconds")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("oversized bodies changed service state:\nbefore %v\nafter  %v", before, after)
	}
}
