package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"poilabel"
)

// client issues the driver's requests over a bounded set of connections and
// times each one from just before it is sent until its body has been read.
type client struct {
	base string
	http *http.Client
	// rec is set in a traced run: a traced request carries an id and records
	// a client.<op> root span.
	rec *recorder
	seq atomic.Uint64
	// resultsSize is the largest GET /results body seen so far.
	resultsSize atomic.Int64
}

func newClient(base string, conns int, rec *recorder) *client {
	return &client{
		base: base,
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
			},
		},
		rec: rec,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one finished request.
type reply struct {
	status     int
	body       []byte
	start, end time.Time
}

func (r reply) dur() time.Duration { return r.end.Sub(r.start) }

// do sends one request; a non-nil in is sent as JSON. A non-empty op makes it
// a traced request, recorded as client.<op>.
func (c *client) do(ctx context.Context, op, method, path string, in any) (reply, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return reply{}, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return reply{}, err
	}
	root := -1
	var id uint64
	start := time.Now()
	if c.rec != nil && op != "" {
		id = c.seq.Add(1)
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		root = c.rec.open("client."+op, start, id)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.rec.close(root, time.Now())
		return reply{}, err
	}
	// A results body is megabytes; growing a buffer to it by doubling would
	// put the driver's allocator into the measured time.
	var buf bytes.Buffer
	if path == "/results" {
		buf.Grow(int(c.resultsSize.Load()))
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	data := buf.Bytes()
	if path == "/results" && int64(len(data)) > c.resultsSize.Load() {
		c.resultsSize.Store(int64(len(data)) + bytes.MinRead)
	}
	c.rec.close(root, end)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, body: data, start: start, end: end}, nil
}

type registration struct {
	ID     string               `json:"id"`
	Task   *poilabel.TaskSpec   `json:"task,omitempty"`
	Worker *poilabel.WorkerSpec `json:"worker,omitempty"`
}

// register posts the world, tasks then workers, one at a time on one
// connection so the server's dense indices equal the world's.
func (c *client) register(ctx context.Context, w *world) error {
	for i, id := range w.taskIDs {
		spec := w.taskSpec(i)
		if err := c.expect(ctx, http.StatusCreated, "/tasks", registration{ID: id, Task: &spec}); err != nil {
			return err
		}
	}
	for i, id := range w.workerIDs {
		spec := w.workerSpec(i)
		if err := c.expect(ctx, http.StatusCreated, "/workers", registration{ID: id, Worker: &spec}); err != nil {
			return err
		}
	}
	return nil
}

func (c *client) expect(ctx context.Context, status int, path string, in any) error {
	r, err := c.do(ctx, "", http.MethodPost, path, in)
	if err != nil {
		return err
	}
	if r.status != status {
		return fmt.Errorf("POST %s: status %d: %s", path, r.status, r.body)
	}
	return nil
}

// health is the part of GET /healthz the driver reads.
type health struct {
	OK              bool   `json:"ok"`
	Engine          string `json:"engine"`
	Tasks           int    `json:"tasks"`
	Workers         int    `json:"workers"`
	Answers         int    `json:"answers"`
	Pending         int    `json:"pending"`
	RemainingBudget int    `json:"remaining_budget"`
	Fit             *struct {
		QueueDepth     int    `json:"queue_depth"`
		InFlight       bool   `json:"in_flight"`
		Fits           uint64 `json:"fits"`
		Coalesced      uint64 `json:"coalesced"`
		CoveredAnswers uint64 `json:"covered_answers"`
	} `json:"fit"`
	Plan *struct {
		LockFreePlans     uint64 `json:"lock_free_plans"`
		LockedPlans       uint64 `json:"locked_plans"`
		Conflicts         uint64 `json:"conflicts"`
		Retries           uint64 `json:"retries"`
		CandidatePrefix   int    `json:"candidate_prefix"`
		CandidateBuilds   uint64 `json:"candidate_builds"`
		CandidateRebuilds uint64 `json:"candidate_rebuilds"`
		CandidateHits     uint64 `json:"candidate_hits"`
	} `json:"plan"`
	Elastic *struct {
		Enabled    bool   `json:"enabled"`
		Shards     int    `json:"shards"`
		MinShards  int    `json:"min_shards"`
		MaxShards  int    `json:"max_shards"`
		Migrations uint64 `json:"migrations"`
		Splits     uint64 `json:"splits"`
		Merges     uint64 `json:"merges"`
		Aborted    uint64 `json:"aborted"`
		Migrating  bool   `json:"migrating"`
	} `json:"elastic"`
}

func (c *client) health(ctx context.Context) (*health, error) {
	r, err := c.do(ctx, "", http.MethodGet, "/healthz", nil)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /healthz: status %d", r.status)
	}
	var h health
	if err := json.Unmarshal(r.body, &h); err != nil {
		return nil, fmt.Errorf("GET /healthz: %w", err)
	}
	return &h, nil
}

// scrape reads GET /metrics into series name (with labels) -> value.
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	r, err := c.do(ctx, "", http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

type assignRequest struct {
	Workers []string `json:"workers"`
}

type assignReply struct {
	Assignments map[string][]string `json:"assignments"`
}

type answerRequest struct {
	Worker   string `json:"worker"`
	Task     string `json:"task"`
	Selected []bool `json:"selected"`
}

type resultsReply struct {
	Results []poilabel.TaskResult `json:"results"`
}
