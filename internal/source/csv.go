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

// WriteCSV serializes the frame.
func (f *Frame) WriteCSV(w io.Writer) error {
	if err := f.Check(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	meta := make([]string, 0, 4+2*len(f.Meta))
	meta = append(meta, csvMagic, f.Source, "date", f.Date.String())
	for _, kv := range f.Meta {
		meta = append(meta, kv[0], kv[1])
	}
	if err := cw.Write(meta); err != nil {
		return err
	}
	header := make([]string, len(f.Cols))
	for i := range f.Cols {
		header[i] = f.Cols[i].Name + ":" + f.Cols[i].Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(f.Cols))
	for r := 0; r < f.Rows(); r++ {
		for i := range f.Cols {
			rec[i] = f.Cols[i].Cell(r)
		}
		if len(rec) == 1 && rec[0] == "" {
			// encoding/csv writes a lone empty field as an empty line,
			// which its reader skips: the row would vanish on decode.
			// Quote it so the record survives.
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
