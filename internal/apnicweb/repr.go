package apnicweb

// The representation table of the generic report routes.
//
// Every dataset-day is served as one frame in several wire forms. Each
// form is one row of reprs: the handler resolves a request to a row, the
// conditional layer takes the ETag variant, gzip eligibility and
// Content-Length rule from it, binary rows memoize their encoding under
// it, and the client fetches and decodes with it. The promise that all
// representations carry identical data is therefore checked against
// this one table (TestRepresentationsAgree), and a new row is served,
// fetched and checked with no other change.

import (
	"bytes"
	"io"
	"strings"

	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
)

// repr is one wire representation of a dataset-day.
type repr struct {
	name        string // ETag variant, gzip-LRU key and log label
	suffix      string // path suffix after the date; "" is the bare date
	contentType string
	vary        string // Vary header of every response, 304s included
	negotiable  bool   // an Accept header naming contentType selects the row
	gzip        bool   // gzip coding may be negotiated
	declareLen  bool   // identity responses declare Content-Length

	// Each row of the table sets exactly one of stream and encode: text
	// rows stream the identity body row by row and are never
	// materialized server-side; binary rows serve their memoized
	// encoding, so the compact artifact is the cache. (The legacy row
	// sets neither: its route renders and caches the body itself.)
	stream func(*source.Frame, io.Writer) error
	encode func(*source.Frame) ([]byte, error)

	decode func([]byte) (*source.Frame, error) // the client half
}

// varyNegotiated is the Vary header of the generic report routes: they
// pick the representation from Accept (the bare-date path most visibly),
// so without Accept in Vary a shared cache could answer a browser's JSON
// request with a binary body stored for a frame client.
const varyNegotiated = "Accept, Accept-Encoding"

// reprs is the table, in Accept-preference order: a client naming both
// frame media types gets binz, the denser plane it asked for. Only the
// binary rows are negotiable; the wildcard types browsers send (*/*,
// application/*) never select them, so the bare date stays JSON.
var reprs = []repr{
	{
		name: "binz", suffix: framez.Suffix, contentType: framez.ContentType, vary: varyNegotiated,
		// Already entropy-coded: gzip on top costs CPU on both ends for
		// negative savings, so binz is identity-only and never enters
		// the pre-compressed LRU.
		negotiable: true, declareLen: true,
		encode: framez.Encode, decode: framez.Decode,
	},
	{
		name: "bin", suffix: binfmt.Suffix, contentType: binfmt.ContentType, vary: varyNegotiated,
		negotiable: true, gzip: true, declareLen: true,
		encode: binfmt.Encode, decode: binfmt.Decode,
	},
	{
		name: "csv", suffix: ".csv", contentType: "text/csv; charset=utf-8", vary: varyNegotiated,
		gzip:   true,
		stream: (*source.Frame).WriteCSV,
		decode: func(b []byte) (*source.Frame, error) { return source.ReadCSV(bytes.NewReader(b)) },
	},
	{
		name: "json", contentType: "application/json", vary: varyNegotiated,
		gzip:   true,
		stream: (*source.Frame).WriteJSON,
		decode: func(b []byte) (*source.Frame, error) { return source.ReadJSON(bytes.NewReader(b)) },
	},
}

// legacy is the fixed representation of the legacy APNIC route: the
// native report CSV, whose bytes (cached by the route itself) and
// headers are pinned by the compatibility tests. Its path fixes the
// representation, so it varies on Accept-Encoding alone, and it declares
// no Content-Length, leaving large bodies to net/http's chunking so the
// pinned wire bytes hold.
var legacy = repr{
	name: "legacy", suffix: ".csv", contentType: "text/csv; charset=utf-8", vary: "Accept-Encoding",
	gzip: true,
}

// badDate is the 400 message of the generic report route, listing the
// date forms in reverse table order, bare date first (the text is
// pinned by TestBadDateMessage).
var badDate = func() string {
	forms := make([]string, len(reprs))
	for i := range reprs {
		forms[len(reprs)-1-i] = "YYYY-MM-DD" + reprs[i].suffix
	}
	last := len(forms) - 1
	return "bad date (want " + strings.Join(forms[:last], ", ") + " or " + forms[last] + ")"
}()

// lookupRepr returns the table row with the given name.
func lookupRepr(table []repr, name string) (*repr, bool) {
	for i := range table {
		if table[i].name == name {
			return &table[i], true
		}
	}
	return nil, false
}

// resolveRepr picks the row of a report request: a path suffix names its
// row outright; otherwise an Accept header naming a negotiable row's
// media type selects it, first row in table order winning; otherwise
// the bare-date row. It returns the date segment with the suffix cut.
func resolveRepr(table []repr, date, accept string) (string, *repr) {
	var bare *repr
	for i := range table {
		row := &table[i]
		if row.suffix == "" {
			bare = row
		} else if trimmed, ok := strings.CutSuffix(date, row.suffix); ok {
			return trimmed, row
		}
	}
	for i := range table {
		if row := &table[i]; row.negotiable && acceptsMediaType(accept, row.contentType) {
			return date, row
		}
	}
	return date, bare
}

// encodedKey identifies one encoded row's day cache.
type encodedKey struct {
	repr    string
	dataset string
}

// encodedBodies memoizes the bytes of the encoded rows: one source.Days
// per (row, dataset), named "source_<row>" (source_bin, source_binz) and
// sized like the registry's frame cache for that dataset. A cold request
// fills the frame layer too; a repeat hit skips both the frame and the
// encode. The cached slices are shared and must be treated as read-only.
type encodedBodies map[encodedKey]*source.Days[csvDay]

// newEncodedBodies builds the caches of every encoded row for every
// dataset registered in reg; the roster is fixed once the server is built.
func newEncodedBodies(table []repr, reg *source.Registry, metrics *obsv.Registry) encodedBodies {
	e := encodedBodies{}
	for _, row := range table {
		if row.encode == nil {
			continue
		}
		for _, name := range reg.Names() {
			st, _ := reg.FrameCacheStats(name)
			e[encodedKey{row.name, name}] = source.NewDays[csvDay](metrics, "source_"+row.name, name, st.Cap)
		}
	}
	return e
}

// get returns the memoized encoding of frame f, one dataset-day, in row.
// An encode error is cached with the day: encoding is deterministic, so
// it would recur on every attempt.
func (e encodedBodies) get(row *repr, dataset string, d dates.Date, f *source.Frame) ([]byte, error) {
	res := e[encodedKey{row.name, dataset}].Get(d, func(dates.Date) csvDay {
		b, err := row.encode(f)
		return csvDay{body: b, err: err}
	})
	return res.body, res.err
}
