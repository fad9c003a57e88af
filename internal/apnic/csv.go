package apnic

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/dates"
	"repro/internal/source"
)

// csvHeader mirrors the public dataset's column names (§3.2).
var csvHeader = []string{"Rank", "AS", "AS Name", "CC", "Estimated Users", "% of Country", "% of Internet", "Samples"}

// WriteCSV serializes a report in the dataset's column layout, through
// the same allocation-free encoder as the frame codec.
func (r *Report) WriteCSV(w io.Writer) error {
	e := source.NewCSVEncoder(w)
	e.Field("# date")
	e.Field(r.Date.String())
	e.Field("window-days")
	e.Int(int64(r.Window))
	for range 4 {
		e.Field("")
	}
	if err := e.EndRecord(); err != nil {
		return err
	}
	for _, h := range csvHeader {
		e.Field(h)
	}
	if err := e.EndRecord(); err != nil {
		return err
	}
	var as []byte
	for _, row := range r.Rows {
		e.Int(int64(row.Rank))
		as = strconv.AppendUint(append(as[:0], "AS"...), uint64(row.ASN), 10)
		e.FieldBytes(as)
		e.Field(row.ASName)
		e.Field(row.CC)
		e.Float(row.Users, 'f', 2)
		e.Float(row.PctCountry, 'f', 4)
		e.Float(row.PctInternet, 'f', 6)
		e.Int(row.Samples)
		if err := e.EndRecord(); err != nil {
			return err
		}
	}
	return e.Flush()
}

// ReadCSV parses a report written by WriteCSV.
func ReadCSV(rd io.Reader) (*Report, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = len(csvHeader)

	meta, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("apnic: reading metadata: %w", err)
	}
	if len(meta) < 4 || meta[0] != "# date" {
		return nil, fmt.Errorf("apnic: missing metadata row")
	}
	date, err := dates.Parse(meta[1])
	if err != nil {
		return nil, fmt.Errorf("apnic: bad date: %w", err)
	}
	window, err := strconv.Atoi(meta[3])
	if err != nil {
		return nil, fmt.Errorf("apnic: bad window: %w", err)
	}

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("apnic: reading header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("apnic: header column %d = %q, want %q", i, header[i], want)
		}
	}

	rep := &Report{Date: date, Window: window}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("apnic: reading row: %w", err)
		}
		row, err := parseRow(rec)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func parseRow(rec []string) (Row, error) {
	var row Row
	var err error
	if row.Rank, err = strconv.Atoi(rec[0]); err != nil {
		return row, fmt.Errorf("apnic: bad rank %q", rec[0])
	}
	asStr := rec[1]
	if len(asStr) > 2 && asStr[:2] == "AS" {
		asStr = asStr[2:]
	}
	asn, err := strconv.ParseUint(asStr, 10, 32)
	if err != nil {
		return row, fmt.Errorf("apnic: bad AS %q", rec[1])
	}
	row.ASN = uint32(asn)
	row.ASName = rec[2]
	row.CC = rec[3]
	if row.Users, err = strconv.ParseFloat(rec[4], 64); err != nil {
		return row, fmt.Errorf("apnic: bad users %q", rec[4])
	}
	if row.PctCountry, err = strconv.ParseFloat(rec[5], 64); err != nil {
		return row, fmt.Errorf("apnic: bad %% of country %q", rec[5])
	}
	if row.PctInternet, err = strconv.ParseFloat(rec[6], 64); err != nil {
		return row, fmt.Errorf("apnic: bad %% of internet %q", rec[6])
	}
	if row.Samples, err = strconv.ParseInt(rec[7], 10, 64); err != nil {
		return row, fmt.Errorf("apnic: bad samples %q", rec[7])
	}
	return row, nil
}
