package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// Shape is the machine a result was measured on. Results from different
// shapes are not compared.
type Shape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentShape() Shape {
	return Shape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func (s Shape) String() string {
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s %s/%s", s.NumCPU, s.GOMAXPROCS, s.GoVersion, s.GOOS, s.GOARCH)
}

// Metric is one printed value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Record is one run as written by -record: enough to tell later whether
// two runs may be compared.
type Record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    int               `json:"trace"`
	Shape    Shape             `json:"shape"`
	Metrics  map[string]Metric `json:"metrics"`
}

func (r Record) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (Record, error) {
	var r Record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// comparable explains why two records may not be compared, or returns
// "" when they may: same machine shape, workload, trace mode and run
// length. Seeds may differ; that is how a claim is checked on fresh
// inputs.
func comparable(a, b Record) string {
	switch {
	case a.Shape != b.Shape:
		return fmt.Sprintf("machine shapes differ (%s vs %s)", a.Shape, b.Shape)
	case a.Workload != b.Workload:
		return fmt.Sprintf("workloads differ (%s vs %s)", a.Workload, b.Workload)
	case a.Trace != b.Trace:
		return "one run is traced and the other is not"
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("run lengths differ (%gs vs %gs)", a.Seconds, b.Seconds)
	}
	return ""
}

// compareMain prints new/old ratios for two records, or flags them as
// not comparable (exit code 3).
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare needs two record files")
		return 2
	}
	a, err := readRecord(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b, err := readRecord(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if why := comparable(a, b); why != "" {
		fmt.Printf("not compared: %s\n", why)
		return 3
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		nb, ok := b.Metrics[k]
		if !ok {
			fmt.Printf("%-40s only in %s\n", k, args[0])
			continue
		}
		fmt.Printf("%-40s %14.6g -> %14.6g %s (x%.4f)\n", k, a.Metrics[k].Value, nb.Value, nb.Unit, ratio(nb.Value, a.Metrics[k].Value))
	}
	return 0
}
