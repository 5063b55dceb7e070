// Command collectd runs the measurement collection back end: the service
// Netalyzr sessions submit their reports to (§4.1). It keeps only the
// running aggregate, not the reports, and prints it on SIGINT.
//
// Usage:
//
//	collectd [-addr 127.0.0.1:7512] [-debug 127.0.0.1:7582]
//
// -debug mounts the observability snapshot (submit/dedupe/reject counters,
// connection gauges) as JSON on an HTTP listener.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"tangledmass/internal/collect"
	"tangledmass/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("collectd: ")
	var (
		addr  = flag.String("addr", "127.0.0.1:7512", "listen address")
		debug = flag.String("debug", "", "serve the observability snapshot over HTTP on this address (empty: disabled)")
	)
	flag.Parse()
	if err := run(*addr, *debug); err != nil {
		log.Fatal(err)
	}
}

func run(addr, debug string) error {
	srv, err := collect.NewServer(addr)
	if err != nil {
		return err
	}
	log.Printf("collecting on %s", srv.Addr())
	if debug != "" {
		ln, err := obs.ServeDebug(debug, srv.Observer())
		if err != nil {
			return err
		}
		defer ln.Close()
		log.Printf("debug listening on %s", ln.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	sum := srv.Summary()
	out, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling final aggregate: %w", err)
	}
	log.Printf("final aggregate:\n%s", out)
	return srv.Close()
}
