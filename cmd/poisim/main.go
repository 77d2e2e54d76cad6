// Command poisim runs the full crowdsourced POI labelling framework on a
// synthetic deployment and prints a quality report: per-assigner accuracy,
// estimated versus latent worker qualities, and a sample of inferred
// labels.
//
// Usage:
//
//	poisim [-dataset Beijing|China] [-seed N] [-budget N] [-assigner accopt|sf|entropy|random] [-shards K] [-save FILE]
//
// With -save the generated dataset is written as JSON for inspection or
// replay through the library. With -shards K (K > 1) the collected answer
// log is additionally refitted by the K-shard geo-partitioned fitter and its
// accuracy and wall-clock are reported against a single-model refit.
package main

import (
	"flag"
	"fmt"
	mrand "math/rand"
	"os"
	"time"

	"poilabel/internal/assign"
	"poilabel/internal/core"
	"poilabel/internal/crowd"
	"poilabel/internal/experiment"
	"poilabel/internal/model"
	"poilabel/internal/stats"
)

func main() {
	datasetName := flag.String("dataset", "Beijing", "dataset: Beijing or China")
	seed := flag.Int64("seed", 7, "scenario seed")
	budget := flag.Int("budget", 1000, "assignment budget")
	assigner := flag.String("assigner", "accopt", "assigner: accopt, sf, entropy, or random")
	shards := flag.Int("shards", 0, "also refit the answer log with K geographic shards and compare")
	save := flag.String("save", "", "write the generated dataset JSON to this path")
	flag.Parse()

	if err := run(*datasetName, *seed, *budget, *assigner, *shards, *save); err != nil {
		fmt.Fprintf(os.Stderr, "poisim: %v\n", err)
		os.Exit(1)
	}
}

func run(datasetName string, seed int64, budget int, assignerName string, shards int, save string) error {
	s := experiment.DefaultScenario(datasetName, seed)
	s.Budget = budget
	env, err := s.Build()
	if err != nil {
		return err
	}
	if save != "" {
		if err := env.Data.Save(save); err != nil {
			return err
		}
		fmt.Printf("dataset written to %s\n", save)
	}

	var asg assign.Assigner
	switch assignerName {
	case "accopt":
		asg = assign.AccOpt{}
	case "sf":
		asg = assign.NewSpatialFirst(env.Data.Tasks)
	case "entropy":
		asg = assign.EntropyFirst{}
	case "random":
		asg = assign.Random{Rand: newRand(seed + 500)}
	default:
		return fmt.Errorf("unknown assigner %q (want accopt, sf, entropy, or random)", assignerName)
	}

	m, err := env.NewModel()
	if err != nil {
		return err
	}
	plat, err := crowd.NewPlatform(env.Sim, m, core.DefaultUpdatePolicy(), budget)
	if err != nil {
		return err
	}
	consumed, err := plat.Run(asg, crowd.RunConfig{WorkersPerRound: 5, TasksPerWorker: s.H, FinalFullEM: true})
	if err != nil {
		return err
	}

	fmt.Printf("dataset %s: %v\n", env.Data.Name, env.Data.Stats())
	fmt.Printf("assigner %s: consumed %d of %d budget\n", asg.Name(), consumed, budget)
	fmt.Printf("overall accuracy: %.1f%%\n\n", 100*model.Accuracy(m.Result(), env.Data.Truth))

	if shards > 1 {
		if err := compareSharded(env, m, shards); err != nil {
			return err
		}
	}

	wt := stats.NewTable("worker quality: estimated vs latent",
		"worker", "answers", "est P(i=1)", "latent", "latent lambda")
	for i := range env.Workers {
		w := model.WorkerID(i)
		latent := "spammer"
		if env.Profiles[i].Qualified {
			latent = "qualified"
		}
		wt.AddRowf(fmt.Sprintf("w%d", i),
			m.Answers().WorkerAnswerCount(w),
			fmt.Sprintf("%.2f", m.WorkerQuality(w)),
			latent,
			fmt.Sprintf("%g", env.Profiles[i].Lambda))
	}
	fmt.Println(wt)

	res := m.Result()
	lt := stats.NewTable("sample of inferred labels (first 3 tasks)",
		"task", "label", "P(z=1)", "inferred", "truth")
	for t := 0; t < 3 && t < len(env.Data.Tasks); t++ {
		for k := range env.Data.Tasks[t].Labels {
			lt.AddRowf(env.Data.Tasks[t].Name, env.Data.Tasks[t].Labels[k],
				fmt.Sprintf("%.2f", res.Prob[t][k]),
				res.Inferred[t][k],
				env.Data.Truth.Label(model.TaskID(t), k))
		}
	}
	fmt.Println(lt)
	return nil
}

// compareSharded refits the collected answer log with a K-shard fitter and a
// fresh single model, reporting accuracy and wall-clock for both.
func compareSharded(env *experiment.Env, m *core.Model, shards int) error {
	sh, err := env.NewSharded(shards)
	if err != nil {
		return err
	}
	for _, a := range m.Answers().All() {
		if err := sh.Observe(a); err != nil {
			return err
		}
	}
	start := time.Now()
	st := sh.Fit()
	shardedElapsed := time.Since(start)

	single, err := env.NewModel()
	if err != nil {
		return err
	}
	for _, a := range m.Answers().All() {
		if err := single.Observe(a); err != nil {
			return err
		}
	}
	start = time.Now()
	single.Fit()
	singleElapsed := time.Since(start)

	fmt.Printf("sharded refit (K=%d): accuracy %.1f%% in %s (%d roaming workers); single refit: accuracy %.1f%% in %s\n\n",
		sh.NumShards(),
		100*model.Accuracy(sh.Result(), env.Data.Truth), shardedElapsed.Round(time.Millisecond),
		st.Roaming,
		100*model.Accuracy(single.Result(), env.Data.Truth), singleElapsed.Round(time.Millisecond))
	return nil
}

func newRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }
