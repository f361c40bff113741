package main

import (
	"os/exec"
	"regexp"
	"testing"
)

// TestHelpListsNoFlags holds mpmdvet to its one mode: -h prints the usage line
// and the passes, and no flag.
func TestHelpListsNoFlags(t *testing.T) {
	out, err := exec.Command("go", "run", ".", "-h").CombinedOutput()
	if err != nil || !regexp.MustCompile(`^usage: mpmdvet \[package patterns\]\n`).Match(out) || regexp.MustCompile(`(?m)^\s+-`).Match(out) {
		t.Fatalf("mpmdvet -h (%v) printed:\n%s", err, out)
	}
}
