package apnic

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dates"
)

// refWriteCSV is the encoding/csv report writer the allocation-free
// encoder replaced, kept as the oracle for WriteCSV.
func refWriteCSV(r *Report, w io.Writer) error {
	cw := csv.NewWriter(w)
	meta := []string{"# date", r.Date.String(), "window-days", strconv.Itoa(r.Window), "", "", "", ""}
	if err := cw.Write(meta); err != nil {
		return err
	}
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			strconv.Itoa(row.Rank),
			"AS" + strconv.FormatUint(uint64(row.ASN), 10),
			row.ASName,
			row.CC,
			strconv.FormatFloat(row.Users, 'f', 2, 64),
			strconv.FormatFloat(row.PctCountry, 'f', 4, 64),
			strconv.FormatFloat(row.PctInternet, 'f', 6, 64),
			strconv.FormatInt(row.Samples, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeLog records the size of every write; failAfter > 0 fails the
// write that would take the total past it, and counts later writes.
type writeLog struct {
	buf       bytes.Buffer
	sizes     []int
	failAfter int
	failed    bool
	late      int
}

var errDead = errors.New("connection reset")

func (l *writeLog) Write(p []byte) (int, error) {
	if l.failed {
		l.late++
		return 0, errDead
	}
	l.sizes = append(l.sizes, len(p))
	if l.failAfter > 0 && l.buf.Len()+len(p) > l.failAfter {
		n := l.failAfter - l.buf.Len()
		l.buf.Write(p[:n])
		l.failed = true
		return n, errDead
	}
	return l.buf.Write(p)
}

func checkMatchesReference(t *testing.T, r *Report, failAfter int) {
	t.Helper()
	got, want := &writeLog{failAfter: failAfter}, &writeLog{failAfter: failAfter}
	gotErr, wantErr := r.WriteCSV(got), refWriteCSV(r, want)
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("error %v, encoding/csv %v", gotErr, wantErr)
	}
	if !bytes.Equal(got.buf.Bytes(), want.buf.Bytes()) {
		t.Fatalf("bytes differ from encoding/csv:\n%q\nvs\n%q", got.buf.Bytes(), want.buf.Bytes())
	}
	if !slices.Equal(got.sizes, want.sizes) {
		t.Fatalf("writes %v, encoding/csv %v", got.sizes, want.sizes)
	}
	if got.late != 0 {
		t.Fatalf("%d writes after the failed one", got.late)
	}
}

// hostileReport has names and floats on every branch of the quoting
// rule and of 'f' formatting.
func hostileReport() *Report {
	names := []string{"", `Deutsche "Telekom"`, "Bouygues, SA", " lead", "\u00a0nbsp", "\r\n", `\.`,
		strings.Repeat("long ", 1000), strings.Repeat(`"`, 5000)}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 0.005, 2.5e-7}
	r := &Report{Date: dates.New(2024, 2, 29), Window: -3}
	for i, name := range names {
		x := floats[i%len(floats)]
		r.Rows = append(r.Rows, Row{Rank: i - 1, ASN: math.MaxUint32 - uint32(i), ASName: name, CC: name,
			Users: x, PctCountry: -x, PctInternet: x / 3, Samples: math.MinInt64 + int64(i)})
	}
	return r
}

// TestReportWriteCSVMatchesEncodingCSV: real reports over three days and
// a hostile one encode to encoding/csv's bytes through the same writes,
// and a writer failing partway gets its error back with no later write.
func TestReportWriteCSVMatchesEncodingCSV(t *testing.T) {
	g := testGen()
	for _, d := range []dates.Date{dates.New(2019, 1, 1), dates.New(2022, 6, 15), dates.New(2024, 12, 31)} {
		checkMatchesReference(t, g.Generate(d), 0)
	}
	checkMatchesReference(t, hostileReport(), 0)
	rep := g.Generate(dates.New(2024, 4, 21))
	for _, n := range []int{1, 4096, 100000} {
		checkMatchesReference(t, rep, n)
		if err := rep.WriteCSV(&writeLog{failAfter: n}); !errors.Is(err, errDead) {
			t.Fatalf("fail after %d bytes: WriteCSV returned %v", n, err)
		}
	}
	checkMatchesReference(t, hostileReport(), 6000)
}
