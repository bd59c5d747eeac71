package experiments

import (
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/workload/apps"
)

// TestDatasetDigests pins what every dataset builder collects at smoke
// scale: targets, sweep variants and their names, rep rotation, and merge
// order all feed Dataset.Digest, so a refactor of the builders that changes
// any sample shows up here. The lead-time builder is pinned through
// testdata/leadtime_golden.csv instead. The transfer study collects each
// profile with IO500Dataset, so io500-nvme pins a profile other than the
// paper testbed.
func TestDatasetDigests(t *testing.T) {
	cfg := DatasetConfig{Scale: 0.08, Reps: 1, Seed: 1}
	nvme := cfg
	nvme.Profile = "nvme"
	for _, tc := range []struct {
		name  string
		build func() *dataset.Dataset
		want  string
	}{
		{"io500", func() *dataset.Dataset { return IO500Dataset(cfg) }, "43cf6a7f9d95513f"},
		{"dlio", func() *dataset.Dataset { return DLIODataset(cfg) }, "62df9a48ce678388"},
		{"app-enzo", func() *dataset.Dataset { return AppDataset(apps.Enzo, cfg) }, "dbd9f360a363a7a3"},
		{"io500-nvme", func() *dataset.Dataset { return IO500Dataset(nvme) }, "3d5b08ab22dcd8f2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.build().Digest(); got != tc.want {
				t.Fatalf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
