// Package dataset assembles labelled training samples — one per (run, time
// window) with a [targets × features] matrix and a degradation class — and
// provides the 80/20 split, per-feature standardization, and JSON
// (de)serialization used by the training tools.
package dataset

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"quanterference/internal/atomicfile"
	"quanterference/internal/sim"
)

// ErrBadDataset reports a dataset file that decodes but could not be trained
// on: a header without targets, features or at least two classes (or with
// more than maxClasses), or a sample whose shape or label does not match it.
// Load's errors wrap it with the offending sample.
var ErrBadDataset = errors.New("dataset: malformed dataset")

// maxClasses bounds the label space Load accepts. Training allocates per-class
// state up to a classes × classes confusion matrix, so a hostile header
// could otherwise ask for gigabytes; every bin set here has at most a few
// classes.
const maxClasses = 1 << 10

// Sample is one labelled time window.
type Sample struct {
	Workload    string      `json:"workload"`
	Run         string      `json:"run"`
	Window      int         `json:"window"`
	Degradation float64     `json:"degradation"`
	Label       int         `json:"label"`
	Vectors     [][]float64 `json:"vectors"` // [target][feature]
}

// Dataset is a labelled collection with its schema.
type Dataset struct {
	FeatureNames []string `json:"feature_names"`
	NTargets     int      `json:"n_targets"`
	Classes      int      `json:"classes"`
	// Profile names the hardware profile the samples were simulated on
	// ("paper", "nvme", ...; see internal/hw). Empty on datasets written
	// before profiles existed — readers treat that as "paper". Merging
	// datasets from different profiles sets it to "mixed".
	Profile string    `json:"profile,omitempty"`
	Samples []*Sample `json:"samples"`
}

// New creates an empty dataset with the given schema.
func New(featureNames []string, nTargets, classes int) *Dataset {
	return &Dataset{FeatureNames: featureNames, NTargets: nTargets, Classes: classes}
}

// Add validates and appends a sample; a sample that does not match the
// schema is a caller bug and panics.
func (d *Dataset) Add(s *Sample) {
	if err := d.checkSample(s); err != nil {
		panic("dataset: " + err.Error())
	}
	d.Samples = append(d.Samples, s)
}

// checkSample reports why s does not fit d's schema, or nil.
func (d *Dataset) checkSample(s *Sample) error {
	if s == nil {
		return errors.New("sample is null")
	}
	if len(s.Vectors) != d.NTargets {
		return fmt.Errorf("sample has %d targets, want %d", len(s.Vectors), d.NTargets)
	}
	for t, v := range s.Vectors {
		if len(v) != len(d.FeatureNames) {
			return fmt.Errorf("target %d: vector width %d, want %d", t, len(v), len(d.FeatureNames))
		}
	}
	if s.Label < 0 || s.Label >= d.Classes {
		return fmt.Errorf("label %d out of %d classes", s.Label, d.Classes)
	}
	return nil
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Samples) }

// ClassCounts tallies samples per label.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, s := range d.Samples {
		counts[s.Label]++
	}
	return counts
}

// clone returns a dataset with the same schema and no samples.
func (d *Dataset) clone() *Dataset {
	out := New(d.FeatureNames, d.NTargets, d.Classes)
	out.Profile = d.Profile
	return out
}

// Split randomly partitions the samples into train and test sets, reserving
// testFrac (e.g. 0.2 for the paper's 80/20 split) for testing.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test *Dataset) {
	if testFrac < 0 || testFrac >= 1 {
		panic("dataset: testFrac must be in [0,1)")
	}
	train, test = d.clone(), d.clone()
	perm := sim.NewRNG(seed).Perm(len(d.Samples))
	nTest := int(math.Round(testFrac * float64(len(d.Samples))))
	for i, p := range perm {
		if i < nTest {
			test.Samples = append(test.Samples, d.Samples[p])
		} else {
			train.Samples = append(train.Samples, d.Samples[p])
		}
	}
	return train, test
}

// Merge appends all samples of other (schemas must match). Merging across
// two different hardware profiles marks the result "mixed"; an empty profile
// on either side is a wildcard (unstamped data), not a distinct profile, so
// the merge adopts whichever side is stamped instead of poisoning the result.
func (d *Dataset) Merge(other *Dataset) {
	if other.NTargets != d.NTargets || len(other.FeatureNames) != len(d.FeatureNames) ||
		other.Classes != d.Classes {
		panic("dataset: merging incompatible schemas")
	}
	switch {
	case other.Profile == d.Profile || other.Profile == "":
		// Same profile, or the other side is unstamped: keep ours.
	case d.Profile == "":
		d.Profile = other.Profile
	default:
		d.Profile = "mixed"
	}
	d.Samples = append(d.Samples, other.Samples...)
}

// Save writes the dataset as JSON. A failed save leaves any previous file
// at path intact.
func (d *Dataset) Save(path string) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(d)
	})
}

// Load reads a dataset written by Save. A file that decodes but could not be
// trained on — see ErrBadDataset — returns an error wrapping ErrBadDataset
// that names the offending sample, never a dataset that panics in training.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d Dataset
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return nil, err
	}
	if d.NTargets < 1 || len(d.FeatureNames) == 0 || d.Classes < 2 || d.Classes > maxClasses {
		return nil, fmt.Errorf("%w: %s: %d targets x %d features, %d classes (want at least 1 x 1 and 2 to %d classes)",
			ErrBadDataset, path, d.NTargets, len(d.FeatureNames), d.Classes, maxClasses)
	}
	for i, s := range d.Samples {
		if err := d.checkSample(s); err != nil {
			name := fmt.Sprintf("sample %d", i)
			if s != nil {
				name += fmt.Sprintf(" (run %q, window %d)", s.Run, s.Window)
			}
			return nil, fmt.Errorf("%w: %s: %s: %v", ErrBadDataset, path, name, err)
		}
	}
	return &d, nil
}

// Copy deep-copies the dataset (samples and vectors), so destructive
// operations like Scaler.Transform cannot touch the original.
func (d *Dataset) Copy() *Dataset {
	out := d.clone()
	for _, s := range d.Samples {
		c := *s
		c.Vectors = make([][]float64, len(s.Vectors))
		for t, vec := range s.Vectors {
			c.Vectors[t] = append([]float64(nil), vec...)
		}
		out.Samples = append(out.Samples, &c)
	}
	return out
}

// Rebin re-labels every sample from its stored degradation level using a
// different bin set (e.g. turning a binary dataset into the 3-class one
// without re-simulating). labelOf maps a degradation level to a class.
func (d *Dataset) Rebin(classes int, labelOf func(deg float64) int) *Dataset {
	out := New(d.FeatureNames, d.NTargets, classes)
	out.Profile = d.Profile
	for _, s := range d.Samples {
		c := *s
		c.Label = labelOf(s.Degradation)
		out.Add(&c)
	}
	return out
}

// SelectFeatures projects every vector onto the given feature indices (for
// the client-only / server-only feature ablation). Vectors are copied.
func (d *Dataset) SelectFeatures(idxs []int) *Dataset {
	names := make([]string, len(idxs))
	for i, f := range idxs {
		names[i] = d.FeatureNames[f]
	}
	out := New(names, d.NTargets, d.Classes)
	out.Profile = d.Profile
	for _, s := range d.Samples {
		c := *s
		c.Vectors = make([][]float64, len(s.Vectors))
		for t, vec := range s.Vectors {
			nv := make([]float64, len(idxs))
			for i, f := range idxs {
				nv[i] = vec[f]
			}
			c.Vectors[t] = nv
		}
		out.Add(&c)
	}
	return out
}

// Scaler standardizes features to zero mean and unit variance, fit on the
// training set only.
type Scaler struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// FitScaler computes per-feature statistics over all targets and samples.
func FitScaler(d *Dataset) *Scaler {
	nf := len(d.FeatureNames)
	s := &Scaler{Mean: make([]float64, nf), Std: make([]float64, nf)}
	n := 0
	for _, smp := range d.Samples {
		for _, vec := range smp.Vectors {
			for f, x := range vec {
				s.Mean[f] += x
			}
			n++
		}
	}
	if n == 0 {
		for f := range s.Std {
			s.Std[f] = 1
		}
		return s
	}
	for f := range s.Mean {
		s.Mean[f] /= float64(n)
	}
	for _, smp := range d.Samples {
		for _, vec := range smp.Vectors {
			for f, x := range vec {
				dlt := x - s.Mean[f]
				s.Std[f] += dlt * dlt
			}
		}
	}
	for f := range s.Std {
		s.Std[f] = math.Sqrt(s.Std[f] / float64(n))
		if s.Std[f] < 1e-12 {
			s.Std[f] = 1 // constant feature: leave centred only
		}
	}
	return s
}

// Transform standardizes every vector in place.
func (s *Scaler) Transform(d *Dataset) {
	for _, smp := range d.Samples {
		for _, vec := range smp.Vectors {
			for f := range vec {
				vec[f] = (vec[f] - s.Mean[f]) / s.Std[f]
			}
		}
	}
}

// SaveCSV writes a flat CSV view: one row per sample with metadata columns
// followed by every (target, feature) cell — consumable by external tools.
func (d *Dataset) SaveCSV(path string) error {
	return atomicfile.Write(path, d.writeCSV)
}

func (d *Dataset) writeCSV(out io.Writer) error {
	w := bufio.NewWriter(out)
	fmt.Fprint(w, "workload,run,window,degradation,label")
	for t := 0; t < d.NTargets; t++ {
		for _, name := range d.FeatureNames {
			fmt.Fprintf(w, ",t%d_%s", t, name)
		}
	}
	fmt.Fprintln(w)
	for _, s := range d.Samples {
		fmt.Fprintf(w, "%s,%s,%d,%.6f,%d",
			csvEscape(s.Workload), csvEscape(s.Run), s.Window, s.Degradation, s.Label)
		for _, vec := range s.Vectors {
			for _, x := range vec {
				fmt.Fprintf(w, ",%.6g", x)
			}
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
