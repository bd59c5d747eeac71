package main

import (
	"io"
	"testing"
)

// TestFailSlowFlaggedAndReleased asserts the probe's shape: no window before
// the fault is flagged, every window inside it is, and the flag releases by
// the second window after the disks heal. Today [8,9) is still flagged
// (p=0.94) and [9,10) is not.
func TestFailSlowFlaggedAndReleased(t *testing.T) {
	classes, err := run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != horizon {
		t.Fatalf("%d windows, want %d", len(classes), horizon)
	}
	for i, class := range classes {
		switch {
		case i < faultStart && class != 0:
			t.Errorf("window [%d,%d) flagged before the fault", i, i+1)
		case i >= faultStart && i < heal && class != 1:
			t.Errorf("window [%d,%d) inside the fault not flagged", i, i+1)
		case i > heal && class != 0:
			t.Errorf("window [%d,%d) still flagged %d windows after healing", i, i+1, i-heal+1)
		}
	}
}
