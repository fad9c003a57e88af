package source

import (
	"bytes"
	"io"
	"testing"
)

// The text codecs are the decoders the HTTP client runs on every csv and
// json fetch, so they get the same re-encode oracle as the binary codecs:
// any input the decoder accepts must re-encode, the re-encoding must
// decode and re-encode to the same bytes, and the content hash (the
// server's ETag base) must survive the trip.

func FuzzReadCSV(f *testing.F) {
	var sample bytes.Buffer
	if err := sampleFrame().WriteCSV(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte("#source,x,date,2024-01-01\nA:str,B:int,C:float\nDE,1,0.5\n"))
	f.Add([]byte("#source,x,date,2024-01-01,k,\"v, w\"\nName:str\n\"a\"\"b\"\n"))
	// A one-column frame with an empty cell: encoding/csv writes the
	// record as an empty line, which its reader skips, so WriteCSV must
	// quote it or the row vanishes.
	f.Add([]byte("#source,x,date,2024-01-01\nName:str\n\"\"\nb\n\"a\r\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkReencode(t, fr, (*Frame).WriteCSV, ReadCSV)
	})
}

func FuzzReadJSON(f *testing.F) {
	var sample bytes.Buffer
	if err := sampleFrame().WriteJSON(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte(`{"source":"x","date":"2024-01-01","rows":1,"columns":[{"name":"A","kind":"float","values":[1e300]}]}`))
	f.Add([]byte(`{"source":"x","date":"2024-01-01","meta":[["k","v"]],"columns":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkReencode(t, fr, (*Frame).WriteJSON, ReadJSON)
	})
}

// checkReencode is the fuzz oracle for an accepted frame f.
func checkReencode(t *testing.T, f *Frame, write func(*Frame, io.Writer) error, read func(io.Reader) (*Frame, error)) {
	t.Helper()
	var first bytes.Buffer
	if err := write(f, &first); err != nil {
		t.Fatalf("accepted frame does not re-encode: %v", err)
	}
	g, err := read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-encoding does not decode: %v\n%q", err, first.Bytes())
	}
	var second bytes.Buffer
	if err := write(g, &second); err != nil {
		t.Fatalf("decoded re-encoding does not encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encoding is not stable:\n%q\nvs\n%q", first.Bytes(), second.Bytes())
	}
	if f.ContentHash() != g.ContentHash() {
		t.Fatalf("content hash changed across the round trip: %s vs %s", f.ContentHash(), g.ContentHash())
	}
}
