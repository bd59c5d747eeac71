package experiments

import (
	"strings"
	"testing"

	"quanterference/internal/sim"
)

func TestTableCSV(t *testing.T) {
	tb := &Table{
		Title: "text only",
		Columns: []Column{{Name: "profile"}, {Name: "horizon"}, {"accuracy", "%.4f"},
			{"delta_vs_now", "%+.4f"}, {"alarm_recall", "%.4f"}},
		Rows: [][]any{
			{"paper", 0, 0.97333, "0.0000", ""},
			{"paper", 1, 1.0, 0.0, 0.5},
			{"paper", 2, 0.9321, -0.0412, 2},
			{"nvme", 2, "skipped", "", ""},
			{"digest", "paper", "c815049afe767a80"},
		},
		Notes: []string{"also text only"},
		Tables: []*Table{{
			Title:   "nested, text only",
			Label:   "\nmatrix,paper",
			Columns: []Column{{Name: "task"}, {"ior-easy-read", "%.2f"}},
			Rows:    [][]any{{"ior-easy-read", 4.405}},
		}},
	}
	want := "profile,horizon,accuracy,delta_vs_now,alarm_recall\n" +
		"paper,0,0.9733,0.0000,\n" +
		"paper,1,1.0000,+0.0000,0.5000\n" +
		"paper,2,0.9321,-0.0412,2\n" +
		"nvme,2,skipped,,\n" +
		"digest,paper,c815049afe767a80\n" +
		"\n" +
		"matrix,paper\n" +
		"task,ior-easy-read\n" +
		"ior-easy-read,4.41\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
}

// TestTableRender checks that every column is as wide as its widest cell,
// whether that is the header (task\interference, which overflowed Table I's
// 16-column field) or a cell (a long metric name, which overflowed Table
// II's 26-column field), and where the title, notes and nested tables go.
func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "title",
		Columns: []Column{{Name: "task\\interference"}, {Name: "metric"}, {"value", "%.2f"}},
		Rows: [][]any{
			{"ior-easy-read", "srv_weighted_queue_time_sum", 3.1685},
			{"mdt", "srv_completed_ios_sum", 323.0},
			{"short row"},
		},
		Notes: []string{"a note", "a note\nspanning lines\n"},
		Tables: []*Table{{
			Title:   "nested",
			Label:   "csv only",
			Columns: []Column{{Name: "n"}},
			Rows:    [][]any{{7}, {"seven"}},
		}},
	}
	want := "title\n" +
		"task\\interference  metric                        value\n" +
		"ior-easy-read      srv_weighted_queue_time_sum    3.17\n" +
		"mdt                srv_completed_ios_sum        323.00\n" +
		"short row\n" +
		"a note\n" +
		"a note\n" +
		"spanning lines\n" +
		"\n" +
		"nested\n" +
		"    n\n" +
		"    7\n" +
		"seven\n"
	if got := tb.Render(); got != want {
		t.Fatalf("Render:\n%s\nwant:\n%s", got, want)
	}
}

// TestPanelsAlign renders two panels whose fixed-width layout was wrong:
// Table II's long metric names and transfer's class balances, whose slice
// was padded element by element and which are now a nested table of counts.
func TestPanelsAlign(t *testing.T) {
	t2 := &TableIIResult{
		Names:       []string{"srv_completed_ios_sum", "srv_weighted_queue_time_sum"},
		Groups:      []string{"I/O speed", "Read/Write queue"},
		TargetNames: []string{"ost0", "mdt"},
		Values:      [][]float64{{85, 3.16851}, {323, 0.0096}},
	}
	want := "Table II server-side metrics (window 0)\n" +
		"section           metric                          ost0       mdt\n" +
		"I/O speed         srv_completed_ios_sum        85.0000  323.0000\n" +
		"Read/Write queue  srv_weighted_queue_time_sum   3.1685    0.0096\n"
	if got := t2.Table().Render(); got != want {
		t.Errorf("Table II:\n%s\nwant:\n%s", got, want)
	}

	matrix := &TableIResult{Tasks: []string{"ior-easy-read"},
		Standalone: []sim.Time{229 * sim.Millisecond}, Slowdown: [][]float64{{4.405}}}
	tr := &TransferResult{
		Profiles: []string{"paper", "nvme"}, Samples: []int{33, 33},
		ClassCounts: [][]int{{22, 11}, {33, 0}}, InDomain: []float64{0.5714, 1},
		ZeroShot:  [][]float64{{0.5714, 0.5714}, {0.7143, 1}},
		FineTuned: [][]float64{{0.5714, 1}, {0.7143, 1}},
		Matrices:  []*TableIResult{matrix, matrix},
	}
	wantSets := "\nTransfer datasets: windows per class\n" +
		"profile  samples  <2x  >=2x\n" +
		"paper         33   22    11\n" +
		"nvme          33   33     0\n"
	if txt := tr.Table().Render(); !strings.Contains(txt, wantSets) {
		t.Errorf("transfer text lacks the dataset table:\n%s\nwant:\n%s", txt, wantSets)
	}
	wantCSV := "kind,train_profile,eval_profile,accuracy\n" +
		"in_domain,paper,paper,0.5714\n" +
		"in_domain,nvme,nvme,1.0000\n" +
		"zero_shot,paper,nvme,0.5714\n" +
		"fine_tuned,paper,nvme,1.0000\n" +
		"gap,paper,nvme,0.4286\n" +
		"zero_shot,nvme,paper,0.7143\n" +
		"fine_tuned,nvme,paper,0.7143\n" +
		"gap,nvme,paper,-0.1429\n" +
		"\n" +
		"datasets\n" +
		"profile,samples,<2x,>=2x\n" +
		"paper,33,22,11\n" +
		"nvme,33,33,0\n" +
		"\n" +
		"matrix,paper\n" +
		"task,ior-easy-read,standalone_s\n" +
		"ior-easy-read,4.4050,0.2290\n" +
		"\n" +
		"matrix,nvme\n" +
		"task,ior-easy-read,standalone_s\n" +
		"ior-easy-read,4.4050,0.2290\n"
	if got := tr.Table().CSV(); got != wantCSV {
		t.Errorf("transfer CSV:\n%s\nwant:\n%s", got, wantCSV)
	}
}
