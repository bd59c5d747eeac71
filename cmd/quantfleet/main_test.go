package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStatusErrors pins the -status errors as runStatus returns them. main
// prints each behind one "quantfleet: " prefix, so the errors carry none.
func TestStatusErrors(t *testing.T) {
	if err := runStatus(nil); err == nil || err.Error() != "-status needs at least one name=url or url argument" {
		t.Errorf("runStatus with no arguments: %v", err)
	}

	down := httptest.NewServer(http.NotFoundHandler())
	url := down.URL
	down.Close()
	if err := runStatus([]string{url}); err == nil || err.Error() != "fleet is not consistent" {
		t.Errorf("runStatus on a closed replica: %v", err)
	}
}
