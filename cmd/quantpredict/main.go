// Command quantpredict loads a framework trained by `quanttrain -save` and
// either scores a labelled dataset with it (offline batch prediction) or
// runs a fresh simulated scenario and predicts every live window — the
// deployment half of the paper's Figure 2. With -server it sends every
// prediction to a running quantserve instance instead of loading the
// framework locally.
//
// Usage:
//
//	quantpredict -framework fw.json -data dataset.json        # batch
//	quantpredict -framework fw.json -live ior-easy-write \
//	             -interference ior-easy-read -instances 3     # online
//	quantpredict -server http://localhost:8080 -data d.json   # remote
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/hw"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/serve"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/registry"
)

var (
	fwPath    = flag.String("framework", "framework.json", "framework from quanttrain -save")
	server    = flag.String("server", "", "quantserve URL; predicts remotely instead of loading -framework")
	dataPath  = flag.String("data", "", "batch mode: dataset JSON to score")
	live      = flag.String("live", "", "online mode: target workload to run and predict")
	interf    = flag.String("interference", "", "online mode: interference workload")
	instances = flag.Int("instances", 2, "online mode: interference instances")
	ranks     = flag.Int("ranks", 4, "online mode: target ranks")
	duration  = flag.Float64("duration", 20, "online mode: simulated seconds")
	scale     = flag.Float64("scale", 1.0, "workload volume scale")
)

// predictor abstracts where predictions come from: a locally loaded
// framework or a remote quantserve instance.
type predictor struct {
	bins    label.Bins
	predict func(mat window.Matrix) (class int, probs []float64, err error)
}

func newLocalPredictor() (*predictor, error) {
	fw, err := core.LoadFramework(*fwPath)
	if err != nil {
		return nil, err
	}
	return &predictor{
		bins: fw.Bins,
		predict: func(mat window.Matrix) (int, []float64, error) {
			class, probs := fw.Predict(mat)
			return class, probs, nil
		},
	}, nil
}

func newServerPredictor(url string) (*predictor, error) {
	c := serve.NewClient(url)
	ctx := context.Background()
	h, err := c.Health(ctx)
	if err != nil {
		return nil, fmt.Errorf("server %s unreachable: %w", url, err)
	}
	return &predictor{
		bins: label.Bins{Thresholds: h.Thresholds},
		predict: func(mat window.Matrix) (int, []float64, error) {
			resp, err := c.Predict(ctx, mat)
			if err != nil {
				return 0, nil, err
			}
			return resp.Class, resp.Probs, nil
		},
	}, nil
}

func main() {
	flag.Parse()
	var (
		p   *predictor
		err error
	)
	if *server != "" {
		p, err = newServerPredictor(*server)
	} else {
		p, err = newLocalPredictor()
	}
	if err != nil {
		fatal(err)
	}
	switch {
	case *dataPath != "":
		batch(p)
	case *live != "":
		online(p)
	default:
		fatal(fmt.Errorf("pass -data (batch) or -live (online)"))
	}
}

// batch scores every sample and, since the dataset carries ground truth,
// prints the resulting confusion matrix.
func batch(p *predictor) {
	ds, err := dataset.Load(*dataPath)
	if err != nil {
		fatal(err)
	}
	if ds.Classes != p.bins.Classes() {
		ds = ds.Rebin(p.bins.Classes(), p.bins.Label)
	}
	cm := ml.NewConfusion(p.bins.Classes())
	for _, s := range ds.Samples {
		class, _, err := p.predict(s.Vectors)
		if err != nil {
			fatal(err)
		}
		cm.Add(s.Label, class)
	}
	fmt.Printf("scored %d windows from %s\n\n", ds.Len(), *dataPath)
	fmt.Print(cm.Render(p.bins.Names()))
}

// online runs a fresh scenario and prints a prediction per window.
func online(p *predictor) {
	cl := core.NewCluster(hw.PaperProfile())
	gen, err := registry.Resolve(*live, registry.Spec{Dir: "/live", Ranks: *ranks, Scale: *scale})
	if err != nil {
		fatal(err)
	}
	mon := core.AttachLive(cl, sim.Second, func(idx int, mat window.Matrix) {
		class, probs, err := p.predict(mat)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("t=%3ds  %-6s p=%.2f\n", idx+1, p.bins.Name(class), probs[class])
	})
	target := &workload.Runner{
		FS: cl.FS, Name: *live, Nodes: []string{"c0", "c1"}, Ranks: *ranks,
		Gen: gen, Loop: true, OnRecord: mon.Record,
	}
	target.Start()
	if *interf != "" {
		for i := 0; i < *instances; i++ {
			igen, err := registry.Resolve(*interf, registry.Spec{
				Dir: fmt.Sprintf("/bg%d", i), Ranks: 6, Scale: *scale,
			})
			if err != nil {
				fatal(err)
			}
			bg := &workload.Runner{
				FS: cl.FS, Name: fmt.Sprintf("bg%d", i),
				Nodes: []string{"c2", "c3", "c4", "c5", "c6"}, Ranks: 6,
				Gen: igen, Loop: true,
			}
			bg.Start()
		}
	}
	cl.Eng.RunUntil(sim.Seconds(*duration))
	mon.Stop()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "quantpredict:", err)
	os.Exit(1)
}
