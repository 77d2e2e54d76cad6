package poilabel

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// updateGolden rewrites testdata/golden_*.json from the running commit. The
// committed files were written by the commit before the partition-node
// refactor, so the test below checks the wire format and every restored
// number against a different implementation — the one thing the same-commit
// round-trip tests cannot see.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_* from this commit")

// goldenExpect is what the writing commit observed right after taking the
// checkpoint. JSON round-trips float64 exactly, so equality is bit-identity.
type goldenExpect struct {
	Prob     [][]float64         `json:"prob"`
	Inferred [][]bool            `json:"inferred"`
	Workers  []WorkerInfo        `json:"workers"`
	Round    map[string][]string `json:"round"`
	Budget   int                 `json:"budget_after_round"`
}

// goldenCases build the two services whose checkpoints are pinned. syncOpts
// is the same engine shape without a scheduler and nothing else configured.
// Restoring publishes the snapshot's state under the next generation number,
// but a checkpoint taken while that publication is still current records the
// number it was restored from — so under either option set the re-encoded
// checkpoint must equal the golden bytes to the last one.
var goldenCases = []struct {
	name     string
	opts     func() []ServiceOption
	syncOpts []ServiceOption
	build    func(t *testing.T, svc *Service)
}{
	{
		// One forced split, so layout, order and norm_diameter are populated,
		// then a late task, post-split answers and a round left pending.
		name:     "sharded",
		opts:     func() []ServiceOption { return elasticOpts(4, WithBudget(200)) },
		syncOpts: []ServiceOption{WithEngine(EngineSharded), WithShards(4)},
		build: func(t *testing.T, svc *Service) {
			ctx := context.Background()
			truth := registerGridWorld(t, svc, 48, 8)
			feedPairs(t, svc, truth, 7, 0, 8, 0, 24)
			quiesce(t, svc)
			if err := svc.forceSplit(ctx, 1); err != nil {
				t.Fatal(err)
			}
			if err := svc.AddTask("late-task", TaskSpec{Location: Pt(9.5, 1.5), Labels: []string{"a", "b"}}); err != nil {
				t.Fatal(err)
			}
			feedPairs(t, svc, truth, 8, 0, 8, 24, 30)
			if err := svc.SubmitAnswer(wid(2), "late-task", []bool{true, false}); err != nil {
				t.Fatal(err)
			}
			if err := svc.WaitFresh(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.RequestTasks(ctx, []string{wid(0), wid(1), wid(2)}); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		// 2 cities x 2 shards; the grid's first row spans both cities, so
		// every worker has answers in both and the merge is count-weighted.
		name: "federated",
		opts: func() []ServiceOption {
			return []ServiceOption{WithEngine(EngineFederated), WithCities(2), WithShards(2), WithBudget(200), WithFullEMInterval(50)}
		},
		syncOpts: []ServiceOption{WithEngine(EngineFederated), WithCities(2), WithShards(2)},
		build: func(t *testing.T, svc *Service) {
			ctx := context.Background()
			truth := registerGridWorld(t, svc, 48, 8)
			feedPairs(t, svc, truth, 9, 0, 8, 0, 24)
			if err := svc.AddTask("late-task", TaskSpec{Location: Pt(12.5, 2.5), Labels: []string{"a", "b"}}); err != nil {
				t.Fatal(err)
			}
			if err := svc.SubmitAnswer(wid(5), "late-task", []bool{false, true}); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.RequestTasks(ctx, []string{wid(0), wid(4), wid(7)}); err != nil {
				t.Fatal(err)
			}
		},
	},
}

// observe records what a service serves right now and what it hands out next.
func observeGolden(t *testing.T, svc *Service) goldenExpect {
	t.Helper()
	ctx := context.Background()
	res, err := svc.ResultSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exp := goldenExpect{Prob: res.Prob, Inferred: res.Inferred}
	for _, id := range svc.WorkerIDs() {
		info, err := svc.WorkerInfo(id)
		if err != nil {
			t.Fatal(err)
		}
		exp.Workers = append(exp.Workers, info)
	}
	if exp.Round, err = svc.RequestTasks(ctx, svc.WorkerIDs()); err != nil {
		t.Fatal(err)
	}
	exp.Budget = svc.RemainingBudget()
	return exp
}

// TestGoldenSnapshotsRestoreBitIdentical restores checkpoints written by the
// parent of the partition-node refactor and requires the exact result set,
// worker estimates, next assignment round and re-encoded bytes.
func TestGoldenSnapshotsRestoreBitIdentical(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			snapPath := filepath.Join("testdata", "golden_"+tc.name+".snapshot.json")
			expPath := filepath.Join("testdata", "golden_"+tc.name+".expect.json")
			if *updateGolden {
				svc, err := NewService(tc.opts()...)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close(context.Background())
				tc.build(t, svc)
				var buf bytes.Buffer
				if err := svc.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				exp, err := json.MarshalIndent(observeGolden(t, svc), "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(expPath, append(exp, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}

			golden, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(expPath)
			if err != nil {
				t.Fatal(err)
			}
			var want goldenExpect
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}

			var svc *Service
			for _, opts := range [][]ServiceOption{tc.syncOpts, tc.opts()} {
				if svc, err = NewService(opts...); err != nil {
					t.Fatal(err)
				}
				defer svc.Close(context.Background())
				if err := svc.Restore(bytes.NewReader(golden)); err != nil {
					t.Fatal(err)
				}
				var again bytes.Buffer
				if err := svc.Checkpoint(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), golden) {
					t.Fatalf("re-encoded checkpoint differs from the golden bytes (%d vs %d bytes)", again.Len(), len(golden))
				}
			}
			got := observeGolden(t, svc)
			if !reflect.DeepEqual(got.Prob, want.Prob) || !reflect.DeepEqual(got.Inferred, want.Inferred) {
				t.Fatal("restored ResultSet is not bit-identical to the writing commit's")
			}
			if !reflect.DeepEqual(got.Workers, want.Workers) {
				t.Fatalf("restored worker estimates differ:\ngot  %+v\nwant %+v", got.Workers, want.Workers)
			}
			if !reflect.DeepEqual(got.Round, want.Round) || got.Budget != want.Budget {
				t.Fatalf("next round differs:\ngot  %v (budget %d)\nwant %v (budget %d)", got.Round, got.Budget, want.Round, want.Budget)
			}
		})
	}
}
