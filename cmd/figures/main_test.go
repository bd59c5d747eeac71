package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestParseProfiles(t *testing.T) {
	for _, list := range []string{"paper,nvme,fastnic", "burstbuffer", "nvme,paper"} {
		got, err := parseProfiles(list)
		if err != nil || strings.Join(got, ",") != list {
			t.Errorf("parseProfiles(%q) = %v, %v", list, got, err)
		}
	}
	for _, list := range []string{"paper,bogus", "paper, nvme", "", "paper,,nvme", "Paper"} {
		got, err := parseProfiles(list)
		if err == nil {
			t.Errorf("parseProfiles(%q) = %v, want an error", list, got)
		} else if !strings.Contains(err.Error(), "paper, nvme, fastnic, burstbuffer") {
			t.Errorf("parseProfiles(%q) error %q does not list the valid profiles", list, err)
		}
	}
}

// panel reads a committed out/ CSV panel as rows of cells. make verify
// regenerates out/ (figures-check) before it runs the tests, so the claims
// below hold for the code under test, not only for the last commit.
func panel(t *testing.T, name string) [][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "out", name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		rows = append(rows, strings.Split(line, ","))
	}
	return rows
}

func num(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// confusion parses a confusion panel's count rows (true class by predicted
// class), which follow its header and stop at the accuracy row.
func confusion(t *testing.T, rows [][]string) (classes []string, m [][]float64) {
	t.Helper()
	classes = rows[0][1:]
	for _, row := range rows[1 : 1+len(classes)] {
		var counts []float64
		for _, c := range row[1:] {
			counts = append(counts, num(t, c))
		}
		m = append(m, counts)
	}
	return classes, m
}

// peakColumn returns the index of a Table I row's largest slowdown cell.
// The last column is standalone_s, not a slowdown.
func peakColumn(t *testing.T, row []string) int {
	t.Helper()
	peak := 1
	for j := 2; j < len(row)-1; j++ {
		if num(t, row[j]) > num(t, row[peak]) {
			peak = j
		}
	}
	return peak
}

// TestPaperClaims asserts the paper's claims that EXPERIMENTS.md quotes, on
// the scale-1 panels the default cmd/figures run writes to out/. Each band
// is stated next to the value the committed panel holds.
func TestPaperClaims(t *testing.T) {
	t.Run("TableIReadRowsPeakUnderReads", func(t *testing.T) {
		// Read-vs-read contention dominates: ior-hard-read peaks at 14.84x
		// under ior-easy-read.
		rows := panel(t, "table1")
		header := rows[0]
		for _, row := range rows[1:] {
			if !strings.HasSuffix(row[0], "-read") {
				continue
			}
			if peak := peakColumn(t, row); !strings.HasSuffix(header[peak], "-read") {
				t.Errorf("%s peaks at %s under %s, a write", row[0], row[peak], header[peak])
			}
		}
	})
	t.Run("TableIEasyReadShrugsOffWrites", func(t *testing.T) {
		// ior-easy-read under the four write tasks: 1.01-1.26 today.
		const band = 1.3
		rows := panel(t, "table1")
		for _, row := range rows[1:] {
			if row[0] != "ior-easy-read" {
				continue
			}
			for j, col := range rows[0][1 : len(rows[0])-1] {
				if strings.HasSuffix(col, "-write") && num(t, row[j+1]) > band {
					t.Errorf("ior-easy-read under %s: %s, want <= %.1f", col, row[j+1], band)
				}
			}
		}
	})
	t.Run("TableIWriteRowsPeakUnderBulkWrite", func(t *testing.T) {
		// The ior-hard-write and mdt-hard-write rows peak under
		// ior-easy-write's bulk writes: 44.65x and 14.77x today.
		rows := panel(t, "table1")
		header := rows[0]
		checked := 0
		for _, row := range rows[1:] {
			if row[0] != "ior-hard-write" && row[0] != "mdt-hard-write" {
				continue
			}
			checked++
			if peak := peakColumn(t, row); header[peak] != "ior-easy-write" {
				t.Errorf("%s peaks at %s under %s, want ior-easy-write", row[0], row[peak], header[peak])
			}
		}
		if checked != 2 {
			t.Errorf("table1 has %d of the ior-hard-write and mdt-hard-write rows, want 2", checked)
		}
	})
	t.Run("TableIMdtEasyWriteSparesData", func(t *testing.T) {
		// mdt-easy-write barely slows the four data tasks: at most 1.0157x
		// today.
		const band = 1.02
		rows := panel(t, "table1")
		col := slices.Index(rows[0], "mdt-easy-write")
		checked := 0
		for _, row := range rows[1:] {
			if !strings.HasPrefix(row[0], "ior-") {
				continue
			}
			checked++
			if v := num(t, row[col]); v > band {
				t.Errorf("%s under mdt-easy-write: %.4fx, want <= %.2f", row[0], v, band)
			}
		}
		if checked != 4 {
			t.Errorf("table1 has %d ior data rows, want 4", checked)
		}
	})
	t.Run("Figure3F1", func(t *testing.T) {
		// F1 of the >=2x class: 0.991 on fig3a, 0.968 on fig3b today.
		const band = 0.90
		for _, name := range []string{"fig3a", "fig3b"} {
			classes, m := confusion(t, panel(t, name))
			pos := slices.Index(classes, ">=2x")
			if pos < 0 {
				t.Fatalf("%s: classes %v have no >=2x", name, classes)
			}
			tp, fp, fn := m[pos][pos], 0.0, 0.0
			for i := range classes {
				if i != pos {
					fp += m[i][pos]
					fn += m[pos][i]
				}
			}
			if f1 := 2 * tp / (2*tp + fp + fn); !(f1 > band) {
				t.Errorf("%s: >=2x F1 %.3f, want > %.2f", name, f1, band)
			}
		}
	})
	t.Run("PhaseSpread", func(t *testing.T) {
		// One app's phases span 1.00x to 50.30x under ior-hard-write.
		const band = 10.0
		rows := panel(t, "phases")
		col := slices.Index(rows[0], "slowdown")
		lo, hi := num(t, rows[1][col]), num(t, rows[1][col])
		for _, row := range rows[2:] {
			lo, hi = min(lo, num(t, row[col])), max(hi, num(t, row[col]))
		}
		if !(hi/lo > band) {
			t.Errorf("phase slowdowns span %.2fx..%.2fx, want max/min > %.0f", lo, hi, band)
		}
	})
	t.Run("TransferGranularity", func(t *testing.T) {
		// Pinned counts, not a paper claim: each profile's transfer set is
		// the Figure 3(a) IO500 collection run on that profile, so every
		// accuracy counts the eval profile's held-out fifth (163, 56 and
		// 161 windows), and only 15 of nvme's windows reach 2x. The paper
		// profile's in-domain model trains Figure 3(a)'s windows with its
		// seed and epochs, so the two accuracies are equal. A collection
		// that changes a count fails here and must update EXPERIMENTS.md.
		rows := panel(t, "transfer")
		want := map[string]string{"paper": "814,227,587", "nvme": "280,265,15", "fastnic": "805,187,618"}
		got := map[string]string{}
		inDomain := math.NaN()
		for i, row := range rows {
			if row[0] == "in_domain" && row[1] == "paper" {
				inDomain = num(t, row[3])
			}
			if row[0] != "datasets" {
				continue
			}
			if h := strings.Join(rows[i+1], ","); h != "profile,samples,<2x,>=2x" {
				t.Fatalf("transfer datasets header %q", h)
			}
			for _, r := range rows[i+2:] {
				if r[0] == "" {
					break
				}
				got[r[0]] = strings.Join(r[1:], ",")
			}
		}
		for p, counts := range want {
			if got[p] != counts {
				t.Errorf("%s transfer dataset: samples,<2x,>=2x = %q, want %q", p, got[p], counts)
			}
		}
		fig3a := math.NaN()
		for _, row := range panel(t, "fig3a") {
			if row[0] == "accuracy" {
				fig3a = num(t, row[1])
			}
		}
		if inDomain != fig3a { // NaN when either panel lacks the row
			t.Errorf("paper in-domain transfer accuracy %.4f, Figure 3(a) %.4f", inDomain, fig3a)
		}
	})
	t.Run("TransferFineTuneKeepsScaler", func(t *testing.T) {
		// A deviation pinned, not a paper claim: a cross-profile fine-tune
		// is a warm start, which keeps the source model's scaler as online
		// retraining does, so fine-tuning lowers exactly the two pairs
		// trained on nvme, whose scaler saw 15 windows at 2x or more:
		// nvme->paper 0.7853 -> 0.3804 and nvme->fastnic 0.8075 -> 0.8012.
		// A change that refits the scaler, or moves which pairs drop,
		// fails here and must update EXPERIMENTS.md.
		zeroShot := map[string]float64{}
		var lowered []string
		for _, row := range panel(t, "transfer") {
			if row[0] != "zero_shot" && row[0] != "fine_tuned" {
				continue
			}
			pair := row[1] + "->" + row[2]
			switch row[0] {
			case "zero_shot":
				zeroShot[pair] = num(t, row[3])
			case "fine_tuned":
				zs, ok := zeroShot[pair]
				if !ok {
					t.Fatalf("transfer: fine_tuned %s has no zero_shot row before it", pair)
				}
				if num(t, row[3]) < zs {
					lowered = append(lowered, pair)
				}
			}
		}
		if want := []string{"nvme->paper", "nvme->fastnic"}; !slices.Equal(lowered, want) {
			t.Errorf("fine-tuning lowers accuracy on %v, want exactly %v (the recorded deviation)", lowered, want)
		}
	})
	t.Run("MdtHardReadUnderDataReads", func(t *testing.T) {
		// A deviation pinned, not a paper claim: the mdt-hard-read row
		// peaks at 10.36x under ior-easy-read, where the paper reports
		// 1.06x, because its small reads go to OST disks that the real
		// system likely served from OSS page cache. A model that moves the
		// cell out of the band fails here and must update EXPERIMENTS.md.
		const lo, hi = 9.0, 12.0
		rows := panel(t, "table1")
		col := slices.Index(rows[0], "ior-easy-read")
		for _, row := range rows[1:] {
			if row[0] != "mdt-hard-read" {
				continue
			}
			if v := num(t, row[col]); !(lo <= v && v <= hi) {
				t.Errorf("mdt-hard-read under ior-easy-read: %.2fx, want %.0f-%.0fx (the recorded deviation)", v, lo, hi)
			}
			return
		}
		t.Fatal("table1 has no mdt-hard-read row")
	})
	sections := map[string][][]string{}
	var app string
	for _, row := range panel(t, "fig5") {
		if name, ok := strings.CutPrefix(row[0], "# Figure 5 "); ok {
			app = name
			continue
		}
		sections[app] = append(sections[app], row)
	}
	t.Run("OpenPMDScarcity", func(t *testing.T) {
		// OpenPMD's test set is 16 windows against AMReX's 79 and Enzo's 90.
		const band = 4.0
		testSet := func(app string) float64 {
			_, m := confusion(t, sections[app])
			n := 0.0
			for _, row := range m {
				for _, v := range row {
					n += v
				}
			}
			return n
		}
		pmd := testSet("openpmd")
		for _, other := range []string{"amrex", "enzo"} {
			if n := testSet(other); !(band*pmd <= n) {
				t.Errorf("openpmd tests on %.0f windows, %s on %.0f: want at most 1/%.0f", pmd, other, n, band)
			}
		}
	})
	t.Run("OpenPMDAccuracyNotDropped", func(t *testing.T) {
		// A deviation pinned, not a paper claim: the paper's OpenPMD model
		// is less accurate than AMReX's and Enzo's, ours is not (1.0000
		// against 0.9747 and 0.9778). A collection that reproduces the drop
		// fails here and must update EXPERIMENTS.md.
		accuracy := func(app string) float64 {
			for _, row := range sections[app] {
				if row[0] == "accuracy" {
					return num(t, row[1])
				}
			}
			t.Fatalf("fig5 %s has no accuracy row", app)
			return 0
		}
		pmd := accuracy("openpmd")
		for _, other := range []string{"amrex", "enzo"} {
			if acc := accuracy(other); pmd < acc {
				t.Errorf("openpmd accuracy %.4f is below %s's %.4f: the paper's drop reproduces (the recorded deviation)", pmd, other, acc)
			}
		}
	})
}
