package repro_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// maxTrackedFileSize is the repo policy enforced here and in CI: no
// tracked binary artifact over 1 MB. (A 5.2 MB repro.test once shipped
// in the tree; this is its regression test.)
const maxTrackedFileSize = 1 << 20

// textExtensions are tracked formats that may legitimately grow large;
// everything else over the limit is treated as an accidental binary.
var textExtensions = map[string]bool{
	".go": true, ".md": true, ".json": true, ".txt": true,
	".yml": true, ".yaml": true, ".mod": true, ".sum": true, ".csv": true,
}

// TestNoLargeTrackedBinaries walks `git ls-files` and fails on any
// tracked file over 1 MB that is not a known text format.
func TestNoLargeTrackedBinaries(t *testing.T) {
	out, err := exec.Command("git", "ls-files", "-z").Output()
	if err != nil {
		t.Skipf("git not available: %v", err)
	}
	for _, name := range strings.Split(string(bytes.TrimRight(out, "\x00")), "\x00") {
		if name == "" {
			continue
		}
		info, err := os.Stat(name)
		if err != nil {
			continue // deleted in the working tree but still tracked
		}
		if info.Size() > maxTrackedFileSize && !textExtensions[filepath.Ext(name)] {
			t.Errorf("tracked file %s is %d bytes (> %d) and not a text format; test binaries and profiles must not be committed",
				name, info.Size(), maxTrackedFileSize)
		}
	}
}

// TestGofmt fails on any tracked Go file gofmt would rewrite, the same
// check as CI's `gofmt -l` step.
func TestGofmt(t *testing.T) {
	gofmt, err := exec.LookPath("gofmt")
	if err != nil {
		t.Skipf("gofmt not available: %v", err)
	}
	out, err := exec.Command("git", "ls-files", "-z", "*.go").Output()
	if err != nil {
		t.Skipf("git not available: %v", err)
	}
	var files []string
	for _, name := range strings.Split(string(bytes.TrimRight(out, "\x00")), "\x00") {
		if _, err := os.Stat(name); name != "" && err == nil {
			files = append(files, name)
		}
	}
	if len(files) == 0 {
		t.Skip("no tracked Go files")
	}
	unformatted, err := exec.Command(gofmt, append([]string{"-l"}, files...)...).Output()
	if err != nil {
		t.Fatalf("gofmt -l: %v", err)
	}
	if len(unformatted) > 0 {
		t.Errorf("gofmt -l flags these files; run gofmt -w on them:\n%s", unformatted)
	}
}
