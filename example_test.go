package poilabel_test

import (
	"context"
	"fmt"
	"math/rand"

	"poilabel"
)

// Example demonstrates the full assign/answer loop on a toy city: two
// reliable workers and one spammer label three POIs under a budget, and the
// service identifies the correct labels and the spammer.
func Example() {
	pois := []struct {
		id    string
		spec  poilabel.TaskSpec
		truth []bool
	}{
		{"park", poilabel.TaskSpec{Location: poilabel.Pt(1, 1), Labels: []string{"green", "mall"}}, []bool{true, false}},
		{"tower", poilabel.TaskSpec{Location: poilabel.Pt(4, 4), Labels: []string{"view", "beach"}}, []bool{true, false}},
		{"museum", poilabel.TaskSpec{Location: poilabel.Pt(2, 3), Labels: []string{"art", "ski"}}, []bool{true, false}},
	}
	crowd := []string{"ada", "bob", "spam"}
	homes := []poilabel.Point{poilabel.Pt(1, 2), poilabel.Pt(3, 3), poilabel.Pt(0, 5)}

	svc, err := poilabel.NewService(poilabel.WithBudget(9), poilabel.WithTasksPerRequest(3))
	if err != nil {
		panic(err)
	}
	truth := make(map[string][]bool)
	gt := &poilabel.GroundTruth{}
	for _, p := range pois {
		if err := svc.AddTask(p.id, p.spec); err != nil {
			panic(err)
		}
		truth[p.id] = p.truth
		gt.Truth = append(gt.Truth, p.truth)
	}
	for i, w := range crowd {
		if err := svc.AddWorker(w, poilabel.WorkerSpec{Locations: homes[i : i+1]}); err != nil {
			panic(err)
		}
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	for {
		assigned, err := svc.RequestTasks(ctx, crowd)
		if err != nil { // ErrBudgetExhausted once all 9 assignments are paid
			break
		}
		n := 0
		for _, w := range crowd {
			for _, t := range assigned[w] {
				p := 0.95
				if w == "spam" {
					p = 0.5
				}
				sel := make([]bool, len(truth[t]))
				for k := range sel {
					if rng.Float64() < p {
						sel[k] = truth[t][k]
					} else {
						sel[k] = !truth[t][k]
					}
				}
				if err := svc.SubmitAnswer(w, t, sel); err != nil {
					panic(err)
				}
				n++
			}
		}
		if n == 0 {
			break
		}
	}

	res, err := svc.ResultSet(ctx)
	if err != nil {
		panic(err)
	}
	for t, p := range pois {
		for k, label := range p.spec.Labels {
			if res.Inferred[t][k] {
				fmt.Printf("%s: %s\n", p.id, label)
			}
		}
	}
	fmt.Printf("accuracy: %.0f%%\n", 100*poilabel.Accuracy(res, gt))

	// Output:
	// park: green
	// tower: view
	// museum: art
	// accuracy: 100%
}
