package repro_test

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestExperimentsMarkdownMatchesCommitted renders the seed-42 report the
// way `go run ./cmd/experiments -md EXPERIMENTS.md` does — a fresh lab,
// every runner on GOMAXPROCS workers, the markdown writer — and compares
// it byte for byte with the committed EXPERIMENTS.md. A change that
// moves any printed result fails here rather than in a hand diff; if the
// move is intended, regenerate the file with that command.
func TestExperimentsMarkdownMatchesCommitted(t *testing.T) {
	const seed = 42
	want, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	recs := experiments.RunAll(experiments.NewLab(seed), experiments.Runners(), runtime.GOMAXPROCS(0), nil)
	results := make([]*experiments.Result, len(recs))
	for i, rec := range recs {
		results[i] = rec.Result
	}
	var got bytes.Buffer
	if err := experiments.WriteMarkdown(&got, seed, results); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("EXPERIMENTS.md line %d differs from the seed-%d render:\ncommitted: %s\nrendered:  %s",
				i+1, seed, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("EXPERIMENTS.md has %d lines, the seed-%d render %d", len(wantLines), seed, len(gotLines))
}
