// HTTP fetch: run the dataset server and a client in one process, the way
// a research pipeline consumes the real dataset from stats.labs.apnic.net:
// discover the served date range, download a week of daily CSVs, build an
// archive, and extract a per-AS time series. The server carries the full
// seven-dataset roster, so the same client then pulls a non-APNIC dataset
// (the ITU country totals) over the generic /v1/{dataset}/... routes.
//
//	go run ./examples/httpfetch
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/apnic"
	"repro/internal/apnicweb"
	"repro/internal/dates"
	"repro/internal/world"
)

func main() {
	// Server side: build the world once and serve every dataset on a
	// loopback port. The legacy APNIC routes ride along unchanged.
	w := world.MustBuild(world.Config{Seed: 1})
	srv := apnicweb.NewMultiServer(w, 1, dates.New(2024, 4, 1), dates.New(2024, 4, 30), 30)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving the dataset roster on", base)

	// Client side: discover the range, fetch a week, build an archive.
	client := &apnicweb.Client{BaseURL: base}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	first, last, err := client.Dates(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server offers %s .. %s\n", first, last)

	archive := apnic.NewArchive()
	for _, d := range dates.Range(first, first.AddDays(6), 1) {
		rep, err := client.Report(ctx, d)
		if err != nil {
			log.Fatal(err)
		}
		archive.Add(rep)
		fmt.Printf("fetched %s: %d rows\n", d, len(rep.Rows))
	}

	// Analysis side: the top German AS's users and samples over the week.
	asns := archive.ASNsIn("DE")
	if len(asns) == 0 {
		log.Fatal("no German ASes in the archive")
	}
	fmt.Printf("\ntop German AS%d over the fetched week:\n", asns[0])
	for _, p := range archive.Series("DE", asns[0]) {
		fmt.Printf("  %s  users=%.0f  samples=%d\n", p.Date, p.Users, p.Samples)
	}

	// Beyond APNIC: the same server publishes the companion datasets.
	// Pull the ITU country totals for the first served day and read off a
	// few large countries from the self-describing frame.
	dd, err := client.DatasetDates(ctx, "itu")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nitu dataset: %s .. %s (cadence %s)\n", dd.First, dd.Last, dd.Cadence)
	f, err := client.Frame(ctx, "itu", first, "csv")
	if err != nil {
		log.Fatal(err)
	}
	cc, users := f.Col("CC"), f.Col("Users")
	fmt.Printf("itu frame for %s: %d countries\n", first, f.Rows())
	shown := 0
	for i := 0; i < f.Rows() && shown < 3; i++ {
		if users.Floats[i] > 1e8 {
			fmt.Printf("  %s  users=%.0f\n", cc.Strs[i], users.Floats[i])
			shown++
		}
	}

	// Representation check: the same report is served as JSON, CSV and
	// the two binary frame codecs. Every representation must decode to the
	// identical frame; the binary bodies are the ones a bulk consumer
	// would pick.
	fj, err := client.Frame(ctx, "cdn", first, "json")
	if err != nil {
		log.Fatal(err)
	}
	report := base + "/v1/cdn/reports/" + first.String()
	jsonLen := bodyLen(ctx, report)
	fmt.Printf("\ncdn report %s: every representation decodes to the same %d-row frame\n", first, fj.Rows())
	fmt.Printf("  json body: %d bytes\n", jsonLen)
	for _, r := range []struct{ format, suffix string }{{"csv", ".csv"}, {"bin", ".bin"}, {"binz", ".binz"}} {
		g, err := client.Frame(ctx, "cdn", first, r.format)
		if err != nil {
			log.Fatal(err)
		}
		if !g.Equal(fj) {
			log.Fatalf("JSON and %s representations decoded to different frames", r.format)
		}
		n := bodyLen(ctx, report+r.suffix)
		fmt.Printf("  %-4s body: %d bytes (%.0f%% of JSON)\n", r.format, n, 100*float64(n)/float64(jsonLen))
	}
}

// bodyLen fetches a URL and returns its identity body length.
func bodyLen(ctx context.Context, u string) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d, %v", u, resp.StatusCode, err)
	}
	return len(body)
}
