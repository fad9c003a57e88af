package source

import (
	"bufio"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// CSVEncoder writes CSV records byte-for-byte as encoding/csv.Writer
// does with Comma ',' and UseCRLF false, without a string per cell.
// Fields are appended to one reused record buffer (numbers through
// strconv's Append functions), and each finished record is copied into
// a 4 KiB bufio.Writer — the size encoding/csv uses — in pieces no
// larger than the buffer. A write that size never takes bufio's
// large-write bypass, so the underlying writer sees exactly the
// buffer-sized writes encoding/csv produced. The one exception is a
// string field longer than the buffer: encoding/csv hands such a field
// (or its quoted segments) to bufio whole, so the encoder does the same
// and the bypass fires where it always did.
//
// Errors are sticky, as in bufio: once a write to the underlying writer
// fails, no further write reaches it, and EndRecord returns the error
// for the record in which it happened.
type CSVEncoder struct {
	bw     *bufio.Writer
	rec    []byte // the record being built
	fields int    // fields in rec so far
}

// csvBufSize is encoding/csv's (and bufio's default) buffer size.
const csvBufSize = 4096

// NewCSVEncoder returns an encoder writing to w.
func NewCSVEncoder(w io.Writer) *CSVEncoder {
	return &CSVEncoder{bw: bufio.NewWriterSize(w, csvBufSize), rec: make([]byte, 0, 512)}
}

// sep starts the next field of the current record.
func (e *CSVEncoder) sep() {
	if e.fields > 0 {
		e.rec = append(e.rec, ',')
	}
	e.fields++
}

// Field appends a string field, quoted when encoding/csv would quote it.
func (e *CSVEncoder) Field(s string) {
	e.sep()
	if len(s) > csvBufSize {
		e.writeLong(s)
		return
	}
	e.rec = appendField(e.rec, s)
}

// FieldBytes is Field for a field held in a byte slice.
func (e *CSVEncoder) FieldBytes(b []byte) {
	e.sep()
	if len(b) > csvBufSize {
		e.writeLong(string(b))
		return
	}
	e.rec = appendField(e.rec, b)
}

// Int appends a decimal integer field. Numbers never need quoting.
func (e *CSVEncoder) Int(v int64) {
	e.sep()
	e.rec = strconv.AppendInt(e.rec, v, 10)
}

// Float appends a float field formatted as strconv.FormatFloat(v, fmt,
// prec, 64) would.
func (e *CSVEncoder) Float(v float64, fmt byte, prec int) {
	e.sep()
	e.rec = strconv.AppendFloat(e.rec, v, fmt, prec, 64)
}

// EndRecord terminates the current record and hands it to the buffer.
// It returns the first write error of the encoder, if any.
func (e *CSVEncoder) EndRecord() error {
	e.rec = append(e.rec, '\n')
	e.fields = 0
	return e.spill()
}

// Flush writes any buffered data to the underlying writer.
func (e *CSVEncoder) Flush() error { return e.bw.Flush() }

// spill copies the record buffer into bufio in buffer-sized pieces.
func (e *CSVEncoder) spill() error {
	var err error
	for p := e.rec; len(p) > 0; {
		n := min(len(p), csvBufSize)
		if _, err = e.bw.Write(p[:n]); err != nil {
			break
		}
		p = p[n:]
	}
	e.rec = e.rec[:0]
	return err
}

// writeLong writes a field longer than the buffer with the same calls
// encoding/csv makes, after the part of the record that precedes it.
// Errors stay sticky in bufio and surface at EndRecord.
func (e *CSVEncoder) writeLong(s string) {
	e.spill()
	if !fieldNeedsQuotes(s) {
		e.bw.WriteString(s)
		return
	}
	e.bw.WriteByte('"')
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '"' && s[i] != '\r' && s[i] != '\n' {
			i++
		}
		e.bw.WriteString(s[:i])
		if i == len(s) {
			break
		}
		if s[i] == '"' {
			e.bw.WriteString(`""`)
		} else {
			e.bw.WriteByte(s[i])
		}
		s = s[i+1:]
	}
	e.bw.WriteByte('"')
}

// appendField appends one field in encoding/csv's form: quoted when
// fieldNeedsQuotes says so, with every '"' doubled and '\r' and '\n'
// written through unchanged.
func appendField[T string | []byte](dst []byte, field T) []byte {
	if !fieldNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, field[i])
	}
	return append(dst, '"')
}

// fieldNeedsQuotes is encoding/csv's quoting rule for Comma ',': a field
// is quoted when it contains ',', '"', '\r' or '\n', equals `\.`, or
// starts with a space rune. The empty field is never quoted.
func fieldNeedsQuotes[T string | []byte](field T) bool {
	if len(field) == 0 {
		return false
	}
	if len(field) == 2 && field[0] == '\\' && field[1] == '.' {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	if field[0] < utf8.RuneSelf {
		return unicode.IsSpace(rune(field[0]))
	}
	var head [utf8.UTFMax]byte
	n := copy(head[:], field)
	r, _ := utf8.DecodeRune(head[:n])
	return unicode.IsSpace(r)
}
