package source_test

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
	"repro/internal/source"
	"repro/internal/source/bundle"
	"repro/internal/world"
)

// refWriteCSV is the encoding/csv frame writer CSVEncoder replaced, kept
// as the oracle: WriteCSV must produce its bytes through the same
// sequence of writes to the underlying writer.
func refWriteCSV(f *source.Frame, w io.Writer) error {
	if err := f.Check(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	meta := []string{"#source", f.Source, "date", f.Date.String()}
	for _, kv := range f.Meta {
		meta = append(meta, kv[0], kv[1])
	}
	if err := cw.Write(meta); err != nil {
		return err
	}
	header := make([]string, len(f.Cols))
	for i, c := range f.Cols {
		header[i] = c.Name + ":" + c.Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(f.Cols))
	for r := 0; r < f.Rows(); r++ {
		for i, c := range f.Cols {
			switch c.Kind {
			case source.String:
				rec[i] = c.Strs[r]
			case source.Int:
				rec[i] = strconv.FormatInt(c.Ints[r], 10)
			default:
				rec[i] = strconv.FormatFloat(c.Floats[r], 'g', -1, 64)
			}
		}
		if len(rec) == 1 && rec[0] == "" {
			if cw.Flush(); cw.Error() != nil {
				return cw.Error()
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeLog records the size of every write it receives. failAfter > 0
// makes the write that would take the total past it fail (after taking
// the bytes that fit); writes after that are counted in late.
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

// stringWriteLog also implements io.StringWriter, which changes how
// bufio forwards a string longer than its buffer.
type stringWriteLog struct{ writeLog }

func (l *stringWriteLog) WriteString(s string) (int, error) { return l.Write([]byte(s)) }

// checkMatchesReference asserts WriteCSV and refWriteCSV agree on bytes,
// on the size of every write, and on the error, against both a plain
// writer and a StringWriter, failing after failAfter bytes when > 0.
func checkMatchesReference(t *testing.T, f *source.Frame, failAfter int) {
	t.Helper()
	for _, strw := range []bool{false, true} {
		var got, want *writeLog
		var gotW, wantW io.Writer
		if strw {
			g, w := &stringWriteLog{}, &stringWriteLog{}
			got, want, gotW, wantW = &g.writeLog, &w.writeLog, g, w
		} else {
			got, want = &writeLog{}, &writeLog{}
			gotW, wantW = got, want
		}
		got.failAfter, want.failAfter = failAfter, failAfter
		gotErr, wantErr := f.WriteCSV(gotW), refWriteCSV(f, wantW)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("StringWriter=%v: error %v, encoding/csv %v", strw, gotErr, wantErr)
		}
		if !bytes.Equal(got.buf.Bytes(), want.buf.Bytes()) {
			t.Fatalf("StringWriter=%v: bytes differ from encoding/csv:\n%q\nvs\n%q", strw, got.buf.Bytes(), want.buf.Bytes())
		}
		if !slices.Equal(got.sizes, want.sizes) {
			t.Fatalf("StringWriter=%v: writes %v, encoding/csv %v", strw, got.sizes, want.sizes)
		}
		if got.late != 0 {
			t.Fatalf("StringWriter=%v: %d writes after the failed one", strw, got.late)
		}
	}
}

// hostileStrings are fields on every branch of encoding/csv's quoting
// rule, plus ones longer than its 4 KiB buffer.
var hostileStrings = []string{
	"", "plain", `"`, `a"b`, "\r", "\n", "\r\n", "a,b", " lead", "\tlead",
	"\u00a0lead", "\u2028lead", "\u0085", `\.`, `\.x`, `x\.`, "trail ", "\xff\xfe", "\u00fcn\u00ef",
	strings.Repeat("x", 5000), strings.Repeat(`ab"c,`, 1500), "\"" + strings.Repeat("y", 9000) + "\n",
}

func hostileFrame() *source.Frame {
	f := source.NewFrame("hostile", dates.New(2024, 2, 29))
	for i, s := range hostileStrings {
		f.AddMeta("k"+strconv.Itoa(i), s)
	}
	f.AddMeta("", "")
	str := f.AddStrings(" Name, \"quoted\"")
	str.Strs = hostileStrings
	n := f.AddInts(`\.`)
	x := f.AddFloats("x\ny")
	for i := range hostileStrings {
		n.Ints = append(n.Ints, int64(i)*-1234567)
		x.Floats = append(x.Floats, []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 5e-324}[i%6])
	}
	f.AddStrings("long:" + strings.Repeat("z", 5000)).Strs = hostileStrings
	return f
}

// TestWriteCSVMatchesEncodingCSV is the differential oracle: every
// registered dataset over three days, and hostile frames, encode to the
// bytes and the writes encoding/csv produced.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	b := bundle.New(world.MustBuild(world.Config{Seed: 11}), 42, bundle.Config{})
	for _, name := range b.Registry.Names() {
		for _, d := range []dates.Date{dates.New(2019, 1, 1), dates.New(2022, 6, 15), dates.New(2024, 12, 31)} {
			f, err := b.Registry.Frame(name, d)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name+"/"+d.String(), func(t *testing.T) { checkMatchesReference(t, f, 0) })
		}
	}
	t.Run("hostile", func(t *testing.T) { checkMatchesReference(t, hostileFrame(), 0) })
	t.Run("lone-empty", func(t *testing.T) {
		f := source.NewFrame("x", dates.New(2024, 1, 1))
		f.AddStrings("Name").Strs = []string{"", "b", "", "", "a\r", ""}
		checkMatchesReference(t, f, 0)
	})
}

// TestWriteCSVWriteError: a writer that fails after n bytes gets the
// error back from WriteCSV and never sees another write — the encoder
// stops at the record where the write failed, as encoding/csv did.
func TestWriteCSVWriteError(t *testing.T) {
	f := benchFrame(2000)
	for _, n := range []int{1, 100, 4096, 4097, 50000} {
		var w writeLog
		w.failAfter = n
		if err := f.WriteCSV(&w); !errors.Is(err, errDead) {
			t.Fatalf("fail after %d bytes: WriteCSV returned %v", n, err)
		}
		if w.late != 0 {
			t.Fatalf("fail after %d bytes: %d writes followed the failure", n, w.late)
		}
		checkMatchesReference(t, f, n)
	}
	checkMatchesReference(t, hostileFrame(), 7000)
}

// benchFrame is an apnic-shaped frame of the given row count.
func benchFrame(rows int) *source.Frame {
	f := source.NewFrame("bench", dates.New(2024, 4, 21))
	f.AddMeta("window-days", "60")
	rank, as := f.AddInts("Rank"), f.AddInts("AS")
	name, cc := f.AddStrings("AS Name"), f.AddStrings("CC")
	users, pct := f.AddFloats("Estimated Users"), f.AddFloats("% of Country")
	for i := 0; i < rows; i++ {
		rank.Ints = append(rank.Ints, int64(i+1))
		as.Ints = append(as.Ints, int64(64500+i))
		name.Strs = append(name.Strs, "Example Networks, Inc. "+strconv.Itoa(i%97))
		cc.Strs = append(cc.Strs, "DE")
		users.Floats = append(users.Floats, float64(rows-i)*1234.5678)
		pct.Floats = append(pct.Floats, 1/float64(i+3))
	}
	return f
}

// TestWriteCSVAllocBudget pins the O(1)-per-body cost: a 10-row and a
// 10,000-row frame cost the same handful of allocations (the encoder, its
// buffers, the date string, Check's name set). A reintroduced string per
// cell would add tens of thousands.
func TestWriteCSVAllocBudget(t *testing.T) {
	const budget = 16
	small, large := benchFrame(10), benchFrame(10000)
	a := testing.AllocsPerRun(5, func() { small.WriteCSV(io.Discard) })
	b := testing.AllocsPerRun(5, func() { large.WriteCSV(io.Discard) })
	if b > budget || a != b && !raceEnabled {
		t.Fatalf("WriteCSV allocates %v times for 10 rows and %v for 10,000; want equal and at most %d", a, b, budget)
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	f := benchFrame(10000)
	b.ReportAllocs()
	for b.Loop() {
		if err := f.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzWriteCSV runs the differential oracle over arbitrary strings,
// ints and floats, in a multi-column frame and in a one-column frame
// (the lone-empty-field rule).
func FuzzWriteCSV(f *testing.F) {
	f.Add("a", " b", int64(7), 1.5, "Name")
	f.Add(`\.`, "\r\n\"", int64(math.MinInt64), math.NaN(), "x,y")
	f.Add("", " ", int64(-1), math.Inf(-1), " ")
	f.Add("\n", "", int64(0), math.Copysign(0, -1), `\.`)
	f.Add(strings.Repeat("q", 4097), "\"", int64(1), math.Inf(1), "")
	f.Fuzz(func(t *testing.T, s1, s2 string, n int64, x float64, name string) {
		fr := source.NewFrame(s1, dates.New(2024, 1, 1))
		fr.AddMeta(s2, s1)
		fr.AddStrings(name).Strs = []string{s1, s2, ""}
		fr.AddInts(s2).Ints = []int64{n, -n, 0}
		fr.AddFloats(s1 + ":").Floats = []float64{x, -x, 1 / x}
		checkMatchesReference(t, fr, 0)

		one := source.NewFrame("one", dates.New(2024, 1, 1))
		one.AddStrings(s2).Strs = []string{s1, "", s2}
		checkMatchesReference(t, one, 0)
	})
}
