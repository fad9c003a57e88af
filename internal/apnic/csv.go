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
	if err := writeHead(e, r.Date, strconv.Itoa(r.Window)); err != nil {
		return err
	}
	var as []byte
	for _, row := range r.Rows {
		as = writeRow(e, as, int64(row.Rank), int64(row.ASN), row.ASName, row.CC,
			row.Users, row.PctCountry, row.PctInternet, row.Samples)
		if err := e.EndRecord(); err != nil {
			return err
		}
	}
	return e.Flush()
}

// WriteFrameCSV writes a report frame (see Report.Frame) in the same
// layout as Report.WriteCSV, byte for byte, reading the frame's columns
// directly: a server holding only the frame renders the legacy CSV
// without rebuilding the native report. A frame that is not
// report-shaped is an error before any byte is written.
func WriteFrameCSV(f *source.Frame, w io.Writer) error {
	window, cols, err := frameColumns(f)
	if err != nil {
		return err
	}
	rank, as, name, cc, users, pctCC, pctNet, samples := cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6], cols[7]
	e := source.NewCSVEncoder(w)
	if err := writeHead(e, f.Date, window); err != nil {
		return err
	}
	var asBuf []byte
	for i := range f.Rows() {
		asBuf = writeRow(e, asBuf, rank.Ints[i], as.Ints[i], name.Strs[i], cc.Strs[i],
			users.Floats[i], pctCC.Floats[i], pctNet.Floats[i], samples.Ints[i])
		if err := e.EndRecord(); err != nil {
			return err
		}
	}
	return e.Flush()
}

// writeHead writes the metadata record and the column header.
func writeHead(e *source.CSVEncoder, date dates.Date, window string) error {
	e.Field("# date")
	e.Field(date.String())
	e.Field("window-days")
	e.Field(window)
	for range 4 {
		e.Field("")
	}
	if err := e.EndRecord(); err != nil {
		return err
	}
	for _, h := range csvHeader {
		e.Field(h)
	}
	return e.EndRecord()
}

// writeRow appends one report row's fields, formatting the AS number
// into as (a reused scratch buffer, returned for the next row).
func writeRow(e *source.CSVEncoder, as []byte, rank, asn int64, name, cc string, users, pctCC, pctNet float64, samples int64) []byte {
	e.Int(rank)
	as = strconv.AppendInt(append(as[:0], "AS"...), asn, 10)
	e.FieldBytes(as)
	e.Field(name)
	e.Field(cc)
	e.Float(users, 'f', 2)
	e.Float(pctCC, 'f', 4)
	e.Float(pctNet, 'f', 6)
	e.Int(samples)
	return as
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
