package poilabel

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
)

// fitTriggers are the two ways a full fit gets triggered: by the caller that
// needs it (the "inline" row, named for where that caller used to fit) or by
// a scheduler (the "pipeline" row). The fit, and everything a caller sees
// after it, is the same code on both rows; the tests below hold the rows to
// the same assertions.
var fitTriggers = []struct {
	name      string
	scheduler bool
	opts      func() []ServiceOption
}{
	// Explicit barriers only, so the rows fit at the same points.
	{"inline", false, func() []ServiceOption { return []ServiceOption{WithFullEMInterval(0)} }},
	{"pipeline", true, bgOpts},
}

// fitShapes are the three engine shapes on the 48-task grid world.
var fitShapes = []struct {
	name string
	opts []ServiceOption
}{
	{"single", []ServiceOption{WithEngine(EngineSingle)}},
	{"sharded", []ServiceOption{WithEngine(EngineSharded), WithShards(4)}},
	{"federated", []ServiceOption{WithEngine(EngineFederated), WithCities(2), WithShards(2)}},
}

// TestEveryFitPublishesEveryReadServes is the unified serving contract, held
// for both fit triggers on every engine shape: accepted answers are counted
// as they arrive, a barrier ends in exactly one fit cycle and one publication
// whose full fit covers all of them, every read returns that generation and
// nothing else, reads alone never move it, and registrations made after a
// publication appear at the model's priors in the next one. The scheduler
// rows are also the staleness contract: between barriers reads serve the old
// generation and never fit.
func TestEveryFitPublishesEveryReadServes(t *testing.T) {
	const nTasks, nWorkers = 48, 8
	for _, pl := range fitTriggers {
		for _, sh := range fitShapes {
			t.Run(pl.name+"/"+sh.name, func(t *testing.T) {
				ctx := context.Background()
				rec := &fitRecorder{}
				opts := append(append([]ServiceOption{WithObserver(rec)}, sh.opts...), pl.opts()...)
				svc, err := NewService(opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close(ctx)
				truth := registerGridWorld(t, svc, nTasks, nWorkers)
				fits := func() int { return len(rec.fitDurations()) }

				// The first read builds the engine and ends with its first
				// generation — one publication, whether or not a fit ran.
				before, err := svc.Results(ctx)
				if err != nil {
					t.Fatal(err)
				}
				gen0 := svc.FitStats().Generation
				if gen0 != 1 {
					t.Fatalf("generation %d after the first read, want 1", gen0)
				}

				// Answers are counted on arrival and owed to the next fit.
				answers := len(feedPairs(t, svc, truth, 29, 0, nWorkers, 0, 24))
				st := svc.FitStats()
				if got := svc.Health().Answers; got != answers {
					t.Fatalf("health counts %d answers, %d were accepted", got, answers)
				}
				if st.Generation != gen0 || st.CoveredAnswers != 0 || st.Staleness <= 0 {
					t.Fatalf("before the barrier: %+v, want generation %d covering 0 answers and stale", st, gen0)
				}
				if pl.scheduler {
					// The scheduler never fires (hour-long interval, unreachable
					// threshold), so reads must keep serving the pre-answer
					// generation without ever fitting.
					fitsBefore := fits()
					for i := 0; i < 10; i++ {
						res, err := svc.Results(ctx)
						if err != nil {
							t.Fatal(err)
						}
						if len(res) != len(before) {
							t.Fatalf("read %d: %d results, want %d", i, len(res), len(before))
						}
					}
					if st := svc.FitStats(); st.Generation != gen0 || st.Fits != 0 || fits() != fitsBefore {
						t.Fatalf("reads alone moved a service with a scheduler: %+v", st)
					}
				}

				barrier := func(want int) *paramGen {
					t.Helper()
					before, fitsBefore := svc.FitStats(), fits()
					if err := svc.WaitFresh(ctx); err != nil {
						t.Fatal(err)
					}
					st := svc.FitStats()
					if st.Generation != before.Generation+1 || fits() != fitsBefore+1 || st.Fits != before.Fits+1 {
						t.Fatalf("barrier: generation %d -> %d over %d observed fits and %d counted cycles, want one publication of one fit",
							before.Generation, st.Generation, fits()-fitsBefore, st.Fits-before.Fits)
					}
					if st.CoveredAnswers != uint64(want) || st.FullFitAnswers != uint64(want) ||
						svc.Health().Answers != want || st.Staleness != 0 {
						t.Fatalf("after the barrier: %+v, health %d answers, want %d everywhere and no staleness",
							st, svc.Health().Answers, want)
					}
					return svc.published.Load()
				}
				readsServe := func(pub *paramGen) {
					t.Helper()
					res, err := svc.Results(ctx)
					if err != nil {
						t.Fatal(err)
					}
					dense, err := svc.ResultSet(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, pub.results) || !reflect.DeepEqual(dense, pub.dense) {
						t.Fatal("Results/ResultSet are not the published generation")
					}
					// The encoded read is that generation too: its number, its
					// publication time, encoding/json's bytes for its results —
					// and the generation's one copy of them on every read.
					enc, err := svc.ResultsJSON(ctx)
					if err != nil {
						t.Fatal(err)
					}
					var want bytes.Buffer
					if err := json.NewEncoder(&want).Encode(map[string][]TaskResult{"results": res}); err != nil {
						t.Fatal(err)
					}
					if enc.Generation != pub.gen || !enc.PublishedAt.Equal(pub.at) || enc.Staleness != 0 || !bytes.Equal(enc.JSON, want.Bytes()) {
						t.Fatalf("ResultsJSON is generation %d published %v, stale %v; the published one is %d, %v; body matches: %t",
							enc.Generation, enc.PublishedAt, enc.Staleness, pub.gen, pub.at, bytes.Equal(enc.JSON, want.Bytes()))
					}
					again, err := svc.ResultsJSON(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if again.Encoded || &again.JSON[0] != &enc.JSON[0] || &enc.JSON[0] != &pub.body.json[0] {
						t.Fatal("a second ResultsJSON of one generation encoded again or served other bytes than the generation's")
					}
					for w, id := range svc.WorkerIDs() {
						info, err := svc.WorkerInfo(id)
						if err != nil {
							t.Fatal(err)
						}
						if info.Quality != pub.pi[w] || !reflect.DeepEqual(info.DistanceSensitivity, pub.pdw[w]) {
							t.Fatalf("WorkerInfo(%s) = %+v, generation holds %v %v", id, info, pub.pi[w], pub.pdw[w])
						}
					}
				}

				pub := barrier(answers)
				fitsSettled := fits()
				readsServe(pub)
				readsServe(pub)
				if svc.published.Load() != pub || fits() != fitsSettled {
					t.Fatal("reads on a settled service published or fitted")
				}

				// Fit: without a scheduler it always refits (the benchmark's fit
				// tail times exactly that); with one it is a barrier, and a
				// settled service already satisfies it.
				for i := 0; i < 3; i++ {
					if _, err := svc.Fit(ctx); err != nil {
						t.Fatal(err)
					}
				}
				wantFits, wantGen := fitsSettled, pub.gen
				if !pl.scheduler {
					wantFits, wantGen = fitsSettled+3, pub.gen+3
				}
				if fits() != wantFits || svc.FitStats().Generation != wantGen {
					t.Fatalf("three Fit calls on a settled service: %d fits, generation %d; want %d, %d",
						fits()-fitsSettled, svc.FitStats().Generation, wantFits-fitsSettled, wantGen)
				}

				// Late registrations ride the next fit's publication, at priors.
				if err := svc.AddTask("late-task", TaskSpec{Location: Pt(9.5, 1.5), Labels: []string{"a", "b"}}); err != nil {
					t.Fatal(err)
				}
				if err := svc.AddWorker("late-worker", WorkerSpec{Locations: []Point{Pt(3.5, 0.5)}}); err != nil {
					t.Fatal(err)
				}
				answers += len(feedPairs(t, svc, truth, 31, 0, 1, 30, 31))
				pub = barrier(answers)
				readsServe(pub)
				last := pub.results[len(pub.results)-1]
				if len(pub.results) != nTasks+1 || last.Task != "late-task" ||
					!reflect.DeepEqual(last.Prob, []float64{svc.cfg.model.InitPZ, svc.cfg.model.InitPZ}) {
					t.Fatalf("late task not published at priors: %d rows, last %+v", len(pub.results), last)
				}
				info, err := svc.WorkerInfo("late-worker")
				if err != nil {
					t.Fatal(err)
				}
				want := WorkerInfo{Worker: "late-worker", Quality: svc.cfg.model.InitPI, DistanceSensitivity: svc.cfg.model.FuncSet.Uniform()}
				if !reflect.DeepEqual(info, want) {
					t.Fatalf("late worker reads %+v, want the priors %+v", info, want)
				}
			})
		}
	}
}

// TestGenerationEncodesOnce pins the generation's body cell at its edges: a
// generation without rows encodes as [] rather than null, only the first
// caller is told it encoded, and an encoder failure is the generation's
// answer to every read, not a retry.
func TestGenerationEncodesOnce(t *testing.T) {
	var size atomic.Int64
	empty := &paramGen{gen: 1}
	body, encoded, err := empty.resultsJSON(&size)
	if err != nil || !encoded || string(body) != "{\"results\":[]}\n" {
		t.Fatalf("a generation without rows encodes as %q (encoded %t, err %v)", body, encoded, err)
	}
	if _, encoded, _ := empty.resultsJSON(&size); encoded {
		t.Fatal("the second read of a generation encoded again")
	}

	bad := &paramGen{gen: 2, results: []TaskResult{{Task: "t", Labels: []string{"a"}, Prob: []float64{math.NaN()}, Inferred: []bool{false}}}}
	for read := 0; read < 2; read++ {
		body, encoded, err := bad.resultsJSON(&size)
		var unsupported *json.UnsupportedValueError
		if body != nil || encoded != (read == 0) || !errors.As(err, &unsupported) {
			t.Fatalf("read %d of a NaN generation: body %q, encoded %t, err %v", read, body, encoded, err)
		}
	}
}

// TestCheckpointCrossesFitPlacements restores a checkpoint written under one
// fit trigger into a service using the other, on every engine shape: who
// triggers a fit is not state, so after a barrier on both sides the two serve
// bit-identical results and hand out the same next round.
func TestCheckpointCrossesFitPlacements(t *testing.T) {
	const nTasks, nWorkers = 48, 8
	for _, sh := range fitShapes {
		for wi, writer := range fitTriggers {
			reader := fitTriggers[1-wi]
			t.Run(sh.name+"/"+writer.name+"-to-"+reader.name, func(t *testing.T) {
				ctx := context.Background()
				mk := func(opts []ServiceOption) *Service {
					svc, err := NewService(append(append([]ServiceOption{WithBudget(200), WithTasksPerRequest(3)}, sh.opts...), opts...)...)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { svc.Close(ctx) })
					return svc
				}
				// A fitted generation, a round left pending, and answers the
				// checkpoint holds but no full fit covers yet.
				orig := mk(writer.opts())
				truth := registerGridWorld(t, orig, nTasks, nWorkers)
				feedPairs(t, orig, truth, 37, 0, nWorkers, 0, 16)
				if err := orig.WaitFresh(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := orig.RequestTasks(ctx, []string{wid(0), wid(5)}); err != nil {
					t.Fatal(err)
				}
				unfitted := uint64(len(feedPairs(t, orig, truth, 39, 0, nWorkers, 16, 22)))
				var buf bytes.Buffer
				if err := orig.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}

				restored := mk(reader.opts())
				if err := restored.Restore(&buf); err != nil {
					t.Fatal(err)
				}
				if got, want := restored.FitStats(), orig.FitStats(); got.CoveredAnswers != want.CoveredAnswers+unfitted ||
					got.FullFitAnswers != want.FullFitAnswers || got.Generation <= want.Generation {
					t.Fatalf("restored publication %+v does not continue the writer's %+v", got, want)
				}
				for _, svc := range []*Service{orig, restored} {
					if err := svc.WaitFresh(ctx); err != nil {
						t.Fatal(err)
					}
				}
				requireIdenticalResults(t, restored, orig)
				samePlans(t, restored, orig, orig.WorkerIDs())
				if got, want := restored.RemainingBudget(), orig.RemainingBudget(); got != want {
					t.Fatalf("budget after the round: %d, writer has %d", got, want)
				}
			})
		}
	}
}
