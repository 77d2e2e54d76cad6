package crowd

import (
	"fmt"
	"math/rand"

	"poilabel/internal/dataset"
	"poilabel/internal/model"
)

// DemoWorld builds the deterministic synthetic world that poiserve's -demo
// flag serves and a simulated crowd client drives. Both sides construct
// it independently from the same (numTasks, numWorkers, seed) triple, so a
// load generator pointed at a demo server knows the server's task labels,
// worker identities, and the latent ground truth to draw answers from
// without any out-of-band exchange.
//
// numTasks ≤ 0 selects the 200-POI Beijing dataset of the reproduction
// experiments — byte-identical to the world earlier poiserve versions
// seeded, so existing -demo workflows keep their exact behaviour. A
// positive numTasks generates a synthetic city of that size (20 urban
// clusters, the scalability experiments' shape) for serving-scale load
// tests.
func DemoWorld(numTasks, numWorkers int, seed int64) (*dataset.Dataset, []model.Worker, []WorkerProfile, error) {
	if numWorkers <= 0 {
		return nil, nil, nil, fmt.Errorf("crowd: demo world needs a positive worker count, got %d", numWorkers)
	}
	var data *dataset.Dataset
	if numTasks <= 0 {
		data = dataset.Beijing(seed)
	} else {
		data = dataset.Generate(dataset.Config{
			Name:     "synthetic",
			NumTasks: numTasks,
			Clusters: 20,
		}, seed)
	}
	cfg := DefaultPopulation(data.Bounds)
	cfg.NumWorkers = numWorkers
	workers, profiles, err := GeneratePopulation(cfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, nil, nil, err
	}
	return data, workers, profiles, nil
}
