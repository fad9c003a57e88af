// Package source unifies the seven dataset simulators behind one
// abstraction. The paper's core move is treating APNIC as one of several
// datasets (Table 1) and cross-validating them; this package gives the
// codebase the same plurality: every simulator is wrapped as a Source
// that produces a columnar Frame for a date, serialization (CSV and
// JSON) is written once against Frame instead of once per dataset, and a
// Registry memoizes per-(dataset, day) artifacts with uniform
// singleflight caching and metrics.
//
// The simulators keep their rich native types (apnic.Report,
// cdn.Snapshot, ...); the adapters in each simulator package convert at
// the boundary, and the round-trip tests pin that the conversion is
// lossless for every column the experiments consume.
package source

import (
	"fmt"
	"strconv"

	"repro/internal/dates"
)

// Kind is the cell type of a column.
type Kind uint8

const (
	String Kind = iota
	Int
	Float
)

// String returns the codec tag for the kind ("str", "int", "float").
func (k Kind) String() string {
	switch k {
	case String:
		return "str"
	case Int:
		return "int"
	case Float:
		return "float"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// parseKind is the inverse of Kind.String.
func parseKind(s string) (Kind, error) {
	switch s {
	case "str":
		return String, nil
	case "int":
		return Int, nil
	case "float":
		return Float, nil
	}
	return 0, fmt.Errorf("source: unknown column kind %q", s)
}

// Column is one typed, named column of a Frame. Exactly one of the value
// slices is populated, selected by Kind.
type Column struct {
	Name string
	Kind Kind

	Strs   []string
	Ints   []int64
	Floats []float64
}

// Len returns the number of cells in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case String:
		return len(c.Strs)
	case Int:
		return len(c.Ints)
	default:
		return len(c.Floats)
	}
}

// appendCell parses one codec cell into the column.
func (c *Column) appendCell(s string) error {
	switch c.Kind {
	case String:
		c.Strs = append(c.Strs, s)
	case Int:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("source: column %q: bad int cell %q", c.Name, s)
		}
		c.Ints = append(c.Ints, v)
	default:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("source: column %q: bad float cell %q", c.Name, s)
		}
		c.Floats = append(c.Floats, v)
	}
	return nil
}

// equal reports whether two columns are identical in name, kind, and
// every cell (floats compared exactly — frames are deterministic
// artifacts, so bit equality is the contract).
func (c *Column) equal(o *Column) bool {
	if c.Name != o.Name || c.Kind != o.Kind || c.Len() != o.Len() {
		return false
	}
	switch c.Kind {
	case String:
		for i, v := range c.Strs {
			if o.Strs[i] != v {
				return false
			}
		}
	case Int:
		for i, v := range c.Ints {
			if o.Ints[i] != v {
				return false
			}
		}
	default:
		for i, v := range c.Floats {
			if o.Floats[i] != v {
				return false
			}
		}
	}
	return true
}

// Frame is one dataset-day as an ordered columnar table: the uniform
// shape every simulator converts into at the serving boundary. Column
// and metadata order are part of the value — iteration and serialization
// are deterministic.
type Frame struct {
	// Source is the dataset name the frame came from ("apnic", "cdn", ...).
	Source string
	// Date identifies the day (for monthly datasets, the first day of the
	// month; for surveys, the collection date).
	Date dates.Date
	// Meta is ordered dataset metadata (e.g. APNIC's window-days).
	Meta [][2]string
	// Cols are the ordered columns; all have the same length. Pointers,
	// so the *Column handed out by Add* stays valid as columns are added.
	Cols []*Column
}

// NewFrame returns an empty frame for a dataset-day.
func NewFrame(sourceName string, d dates.Date) *Frame {
	return &Frame{Source: sourceName, Date: d}
}

// AddMeta appends one metadata pair.
func (f *Frame) AddMeta(key, value string) {
	f.Meta = append(f.Meta, [2]string{key, value})
}

// MetaValue returns the value of the first metadata pair with the key.
func (f *Frame) MetaValue(key string) (string, bool) {
	for _, kv := range f.Meta {
		if kv[0] == key {
			return kv[1], true
		}
	}
	return "", false
}

func (f *Frame) addCol(name string, kind Kind) *Column {
	c := &Column{Name: name, Kind: kind}
	f.Cols = append(f.Cols, c)
	return c
}

// AddStrings appends an empty string column and returns it for filling.
func (f *Frame) AddStrings(name string) *Column { return f.addCol(name, String) }

// AddInts appends an empty int column.
func (f *Frame) AddInts(name string) *Column { return f.addCol(name, Int) }

// AddFloats appends an empty float column.
func (f *Frame) AddFloats(name string) *Column { return f.addCol(name, Float) }

// Reserve gives every column room for n more cells, with capacity
// exactly len+n. A conversion that knows its row count calls it after
// adding the columns, so each column is one allocation instead of an
// append-doubling chain, and a cached frame carries no slack capacity.
func (f *Frame) Reserve(n int) {
	for _, c := range f.Cols {
		switch c.Kind {
		case String:
			c.Strs = reserve(c.Strs, n)
		case Int:
			c.Ints = reserve(c.Ints, n)
		default:
			c.Floats = reserve(c.Floats, n)
		}
	}
}

// reserve returns s with room for n more elements. Unlike slices.Grow,
// whose append rounds up to the allocator's size class, the capacity is
// exact.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// Col returns the column with the given name, or nil.
func (f *Frame) Col(name string) *Column {
	for _, c := range f.Cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// TypedCol returns the named column when it exists, has the given kind
// and spans every row, so a reader may index its cells by any row
// number below Rows without a further check.
func (f *Frame) TypedCol(name string, kind Kind) (*Column, error) {
	c := f.Col(name)
	switch {
	case c == nil:
		return nil, fmt.Errorf("source: %s frame has no column %q", f.Source, name)
	case c.Kind != kind:
		return nil, fmt.Errorf("source: %s frame column %q is %s, want %s", f.Source, name, c.Kind, kind)
	case c.Len() != f.Rows():
		return nil, fmt.Errorf("source: %s frame column %q has %d cells, want %d", f.Source, name, c.Len(), f.Rows())
	}
	return c, nil
}

// Rows returns the row count (the length of the first column).
func (f *Frame) Rows() int {
	if len(f.Cols) == 0 {
		return 0
	}
	return f.Cols[0].Len()
}

// Check validates the frame's shape: a source name and equal-length
// columns with distinct names.
func (f *Frame) Check() error {
	if f.Source == "" {
		return fmt.Errorf("source: frame has no source name")
	}
	seen := make(map[string]bool, len(f.Cols))
	for _, c := range f.Cols {
		if c.Name == "" {
			return fmt.Errorf("source: %s frame has an unnamed column", f.Source)
		}
		if seen[c.Name] {
			return fmt.Errorf("source: %s frame has duplicate column %q", f.Source, c.Name)
		}
		seen[c.Name] = true
		if c.Len() != f.Rows() {
			return fmt.Errorf("source: %s frame column %q has %d cells, want %d",
				f.Source, c.Name, c.Len(), f.Rows())
		}
	}
	return nil
}

// Equal reports whether two frames are identical: source, date, ordered
// metadata, and every column cell.
func (f *Frame) Equal(g *Frame) bool {
	if f.Source != g.Source || f.Date != g.Date ||
		len(f.Meta) != len(g.Meta) || len(f.Cols) != len(g.Cols) {
		return false
	}
	for i, kv := range f.Meta {
		if g.Meta[i] != kv {
			return false
		}
	}
	for i := range f.Cols {
		if !f.Cols[i].equal(g.Cols[i]) {
			return false
		}
	}
	return true
}
