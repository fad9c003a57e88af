package source

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"repro/internal/dates"
)

// The CSV codec serializes a Frame as:
//
//	#source,<name>,date,<YYYY-MM-DD>[,<metaKey>,<metaValue>...]
//	<Name>:<kind>,<Name>:<kind>,...
//	<cells...>
//
// The typed header makes the format self-describing, so ReadCSV
// reconstructs the exact column kinds and a re-serialize is
// byte-identical (floats are written in shortest-round-trip form, which
// is idempotent under parse → format).

// csvMagic starts the metadata record of every frame CSV.
const csvMagic = "#source"

// WriteCSV serializes the frame through a CSVEncoder: the bytes, and
// the writes reaching w, are those encoding/csv.Writer produces for the
// same records, at O(1) allocations per frame.
func (f *Frame) WriteCSV(w io.Writer) error {
	if err := f.Check(); err != nil {
		return err
	}
	e := NewCSVEncoder(w)
	e.Field(csvMagic)
	e.Field(f.Source)
	e.Field("date")
	e.Field(f.Date.String())
	for _, kv := range f.Meta {
		e.Field(kv[0])
		e.Field(kv[1])
	}
	if err := e.EndRecord(); err != nil {
		return err
	}
	var name []byte
	for _, c := range f.Cols {
		name = append(append(append(name[:0], c.Name...), ':'), c.Kind.String()...)
		e.FieldBytes(name)
	}
	if err := e.EndRecord(); err != nil {
		return err
	}
	lone := len(f.Cols) == 1 && f.Cols[0].Kind == String
	for r := 0; r < f.Rows(); r++ {
		if lone && f.Cols[0].Strs[r] == "" {
			// encoding/csv writes a lone empty field as an empty line,
			// which its reader skips: the row would vanish on decode.
			// Quote it so the record survives.
			if err := e.Flush(); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		for _, c := range f.Cols {
			switch c.Kind {
			case String:
				e.Field(c.Strs[r])
			case Int:
				e.Int(c.Ints[r])
			default:
				// Shortest round-trip form, so parse → format is byte-stable.
				e.Float(c.Floats[r], 'g', -1)
			}
		}
		if err := e.EndRecord(); err != nil {
			return err
		}
	}
	return e.Flush()
}

// ReadCSV parses a frame written by WriteCSV.
func ReadCSV(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // metadata and data records have different widths

	meta, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("source: reading frame metadata: %w", err)
	}
	if len(meta) < 4 || meta[0] != csvMagic || meta[2] != "date" {
		return nil, fmt.Errorf("source: missing %s metadata record", csvMagic)
	}
	if len(meta)%2 != 0 {
		return nil, fmt.Errorf("source: odd metadata record length %d", len(meta))
	}
	d, err := dates.Parse(meta[3])
	if err != nil {
		return nil, fmt.Errorf("source: bad frame date: %w", err)
	}
	f := NewFrame(meta[1], d)
	for i := 4; i < len(meta); i += 2 {
		f.AddMeta(meta[i], meta[i+1])
	}

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("source: reading frame header: %w", err)
	}
	for _, h := range header {
		name, tag, ok := cutLast(h, ':')
		if !ok {
			return nil, fmt.Errorf("source: header column %q has no kind tag", h)
		}
		kind, err := parseKind(tag)
		if err != nil {
			return nil, err
		}
		f.addCol(name, kind)
	}

	cr.FieldsPerRecord = len(f.Cols)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("source: reading frame row: %w", err)
		}
		for i := range f.Cols {
			if err := f.Cols[i].appendCell(rec[i]); err != nil {
				return nil, err
			}
		}
	}
	if err := f.Check(); err != nil {
		return nil, err
	}
	return f, nil
}

// cutLast splits s at the last occurrence of sep, so column names may
// themselves contain the separator ("% of Country:float").
func cutLast(s string, sep byte) (before, after string, ok bool) {
	i := strings.LastIndexByte(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+1:], true
}
