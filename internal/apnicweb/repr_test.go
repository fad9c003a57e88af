package apnicweb

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/source"
)

// tableRow returns the named row of the server's own representation
// table, so a test can swap its stream on that server alone.
func tableRow(t *testing.T, srv *Server, name string) *repr {
	t.Helper()
	row, ok := lookupRepr(srv.reprs, name)
	if !ok {
		t.Fatalf("no %q row in the representation table", name)
	}
	return row
}

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return plain
}

// TestResolveRepr is the negotiation table of the generic report route:
// a path suffix names its row outright; otherwise only an Accept header
// that names a binary media type opts in (binz winning when both are
// named), and everything else — wildcards included — gets JSON.
func TestResolveRepr(t *testing.T) {
	const day = "2024-04-21"
	cases := []struct {
		date, accept string
		want         string // row name
		wantDate     string
	}{
		{day, ``, "json", day},
		{day + ".csv", ``, "csv", day},
		{day + ".bin", ``, "bin", day},
		{day + ".binz", ``, "binz", day},
		{day + ".bin.csv", ``, "csv", day + ".bin"},            // one suffix only; the date then fails to parse
		{day + ".csv", `application/x-frame-binz`, "csv", day}, // a suffix beats Accept
		{day, `application/x-frame-bin`, "bin", day},
		{day, `APPLICATION/X-FRAME-BIN`, "bin", day},
		{day, `application/json, application/x-frame-bin`, "bin", day},
		{day, `application/x-frame-bin;q=0.5`, "bin", day},
		{day, `application/x-frame-bin;q=0`, "json", day}, // explicit refusal
		{day, `application/x-frame-binz`, "binz", day},
		{day, `APPLICATION/X-FRAME-BINZ`, "binz", day},
		{day, `application/json, application/x-frame-binz`, "binz", day},
		{day, `application/x-frame-bin, application/x-frame-binz`, "binz", day},
		{day, `application/x-frame-binz;q=0.5`, "binz", day},
		{day, `application/x-frame-binz;q=0`, "json", day},
		{day, `application/x-frame-binz;q=0, application/x-frame-bin`, "bin", day},
		{day, `application/json`, "json", day},
		{day, `*/*`, "json", day},           // wildcard must not select binary
		{day, `application/*`, "json", day}, // ditto
		{day, `text/html, */*;q=0.8`, "json", day},
	}
	for _, tc := range cases {
		date, row := resolveRepr(reprs, tc.date, tc.accept)
		if row.name != tc.want || date != tc.wantDate {
			t.Errorf("resolveRepr(%q, %q) = (%q, %s), want (%q, %s)", tc.date, tc.accept, date, row.name, tc.wantDate, tc.want)
		}
	}
}

// TestBadDateMessage pins the generic report route's 400 text, which is
// built from the table.
func TestBadDateMessage(t *testing.T) {
	const want = "bad date (want YYYY-MM-DD, YYYY-MM-DD.csv, YYYY-MM-DD.bin or YYYY-MM-DD.binz)"
	_, ts, _ := multiServer(t)
	resp := rawGet(t, ts, "/v1/cdn/reports/nope.csv", nil)
	var eb errorBody
	if err := json.Unmarshal(readAll(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || eb.Error != want {
		t.Errorf("status %d, error %q; want 400 %q", resp.StatusCode, eb.Error, want)
	}
}

// TestRepresentationsAgree is the cross-representation differential
// oracle, driven by the table so a future row is covered with no new
// test code. For every dataset and every row:
//   - Client.Frame decodes to a frame with the registry frame's
//     ContentHash;
//   - the identity and gzip responses carry the ETag
//     source.FormatETag(hash, row.name), with ".gz" added exactly when
//     the row allows gzip, and their bodies decode to the same hash;
//   - an encoded row's memoized bytes equal a fresh encode of the frame.
func TestRepresentationsAgree(t *testing.T) {
	srv, ts, c := multiServer(t)
	d := dates.New(2024, 4, 21)
	for _, name := range srv.Registry().Names() {
		want, err := srv.Registry().Frame(name, d)
		if err != nil {
			t.Fatal(err)
		}
		hash := want.ContentHash()
		for i := range srv.reprs {
			row := &srv.reprs[i]
			t.Run(name+"/"+row.name, func(t *testing.T) {
				got, err := c.Frame(context.Background(), name, d, row.name)
				if err != nil {
					t.Fatal(err)
				}
				if got.ContentHash() != hash {
					t.Errorf("client-decoded frame hash %s, registry frame %s", got.ContentHash(), hash)
				}

				path := "/v1/" + name + "/reports/" + d.String() + row.suffix
				for _, enc := range []string{"identity", "gzip"} {
					resp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": enc})
					body := readAll(t, resp)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s: status %d", enc, resp.StatusCode)
					}
					variant, coding := row.name, ""
					if enc == "gzip" && row.gzip {
						variant, coding = row.name+".gz", "gzip"
						body = gunzip(t, body)
					}
					if etag := resp.Header.Get("ETag"); etag != source.FormatETag(hash, variant) {
						t.Errorf("%s: ETag %s, want %s", enc, etag, source.FormatETag(hash, variant))
					}
					if ce := resp.Header.Get("Content-Encoding"); ce != coding {
						t.Errorf("%s: Content-Encoding %q, want %q", enc, ce, coding)
					}
					if ct := resp.Header.Get("Content-Type"); ct != row.contentType {
						t.Errorf("%s: Content-Type %q, want %q", enc, ct, row.contentType)
					}
					f, err := row.decode(body)
					if err != nil {
						t.Fatalf("%s: decoding the body: %v", enc, err)
					}
					if f.ContentHash() != hash {
						t.Errorf("%s: body decodes to hash %s, want %s", enc, f.ContentHash(), hash)
					}
				}

				if row.encode == nil {
					return
				}
				fresh, err := row.encode(want)
				if err != nil {
					t.Fatal(err)
				}
				memo, err := srv.encoded.get(row, name, d, want)
				if err != nil || !bytes.Equal(memo, fresh) {
					t.Fatalf("memoized %s encoding differs from a fresh encode: %v", row.name, err)
				}
			})
		}
	}
}

// TestClientFrameHostileServer puts a misbehaving server behind every
// row of Client.Frame: a correct response decodes, and a non-200 with a
// garbage body, a 200 with the wrong Content-Type, and a 200 whose body
// is cut at half length each return an error — never a panic, a hang,
// or a frame.
func TestClientFrameHostileServer(t *testing.T) {
	want := source.NewFrame("hostile", dates.New(2024, 4, 21))
	want.AddMeta("note", "a small frame")
	cc := want.AddStrings("CC")
	cc.Strs = []string{"DE", "FR", "NO", "JP"}
	users := want.AddFloats("Users")
	users.Floats = []float64{1.5e7, 2.25e7, 4e6, 0.125}

	garbage := bytes.Repeat([]byte("\x00\xffnot a frame\n"), 8<<10)
	cases := []struct {
		name   string
		serve  func(w http.ResponseWriter, row *repr, body []byte)
		wantOK bool
	}{
		{"correct", func(w http.ResponseWriter, row *repr, body []byte) {
			w.Header().Set("Content-Type", row.contentType)
			w.Write(body)
		}, true},
		{"non-200 garbage", func(w http.ResponseWriter, row *repr, body []byte) {
			w.Header().Set("Content-Type", row.contentType)
			w.WriteHeader(http.StatusBadGateway)
			w.Write(garbage)
		}, false},
		{"wrong content type", func(w http.ResponseWriter, row *repr, body []byte) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(body)
		}, false},
		{"truncated", func(w http.ResponseWriter, row *repr, body []byte) {
			w.Header().Set("Content-Type", row.contentType)
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body[:len(body)/2])
			panic(http.ErrAbortHandler) // drop the connection mid-body
		}, false},
	}
	for i := range reprs {
		row := &reprs[i]
		var buf bytes.Buffer
		if row.encode != nil {
			b, err := row.encode(want)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
		} else if err := row.stream(want, &buf); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()
		for _, tc := range cases {
			t.Run(row.name+"/"+tc.name, func(t *testing.T) {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					tc.serve(w, row, body)
				}))
				defer ts.Close()
				c := &Client{
					BaseURL:    ts.URL,
					HTTPClient: ts.Client(),
					Retry:      obsv.RetryPolicy{MaxAttempts: 2, BaseDelay: 1}, // 1ns: fast test
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				f, err := c.Frame(ctx, "hostile", want.Date, row.name)
				if errors.Is(err, context.DeadlineExceeded) {
					t.Fatal("client hung on a hostile response")
				}
				if !tc.wantOK {
					if err == nil {
						t.Fatalf("accepted a hostile response as a %d-row frame", f.Rows())
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if f.ContentHash() != want.ContentHash() {
					t.Error("correct response decoded to a different frame")
				}
			})
		}
	}
	if _, err := (&Client{BaseURL: "http://127.0.0.1:1"}).Frame(context.Background(), "cdn", want.Date, "xml"); err == nil {
		t.Error("an unknown representation name must fail before any request")
	}
}

// TestAbortedRequestCounted is the regression test for invisible
// aborted requests: a stream that fails after its first write aborts
// the connection by panicking with http.ErrAbortHandler, which used to
// skip the request metrics (recorded only after the handler returned).
// The request must now count under the status class "aborted".
func TestAbortedRequestCounted(t *testing.T) {
	srv, ts, _ := multiServer(t)
	tableRow(t, srv, "csv").stream = func(f *source.Frame, w io.Writer) error {
		// One write past net/http's 4KB response buffer commits the 200 and
		// part of the body before the failure.
		if _, err := w.Write(bytes.Repeat([]byte("FR,example,123456\n"), 512)); err != nil {
			return err
		}
		return errors.New("render failed after the first write")
	}
	resp := rawGet(t, ts, "/v1/cdn/reports/2024-10-05.csv", nil)
	_, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatal("client read a clean body from an aborted stream")
	}
	const route = `route="/v1/cdn/reports/:date"`
	if n := srv.Metrics().Counter(`http_requests_total{` + route + `,class="aborted"}`).Value(); n != 1 {
		t.Errorf(`http_requests_total{%s,class="aborted"} = %d, want 1`, route, n)
	}
	if n := srv.Metrics().Counter(`http_requests_total{` + route + `,class="2xx"}`).Value(); n != 0 {
		t.Errorf("the aborted request was also counted as 2xx (%d)", n)
	}
}
