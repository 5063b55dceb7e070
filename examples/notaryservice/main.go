// Notaryservice: the §4.2 deployment in miniature, over real TCP. A Notary
// server holds the certificate database; a sensor streams observed chains
// to it; an analysis client then runs the Table 3 validation and a §8
// pruning proposal remotely.
//
//	go run ./examples/notaryservice
package main

import (
	"context"
	"fmt"
	"log"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/tlsnet"
)

func main() {
	log.SetFlags(0)
	u := cauniverse.Default()

	// The central Notary service, started empty: a one-shard in-memory
	// cluster, what notaryd serves by default.
	ctx := context.Background()
	db, err := notaryshard.New(certgen.Epoch, 1)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := notarynet.NewServer(db, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("notary service on %s\n", srv.Addr())

	// A sensor at a participating network: it observes the simulated TLS
	// internet and streams every chain upstream.
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: 1, Universe: u, NumLeaves: 3000})
	if err != nil {
		log.Fatal(err)
	}
	sensor, err := notarynet.NewClient(ctx, srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer sensor.Close()
	for _, leaf := range world.Leaves() {
		if err := sensor.Observe(ctx, leaf.Chain, leaf.Port); err != nil {
			log.Fatal(err)
		}
	}
	stats, err := sensor.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor streamed %d sessions; database holds %d unique certs (%d unexpired)\n",
		stats.Sessions, stats.Unique, stats.Unexpired)

	// An analysis client: validate the AOSP stores remotely (Table 3) and
	// count prunable roots (§8).
	client, err := notarynet.NewClient(ctx, srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	fmt.Println("\nremote validation (Table 3 shape):")
	for _, v := range cauniverse.AOSPVersions() {
		store := u.AOSP(v)
		res, err := client.Validate(ctx, store)
		if err != nil {
			log.Fatal(err)
		}
		zero := 0
		for _, c := range res.PerRoot {
			if c == 0 {
				zero++
			}
		}
		fmt.Printf("  AOSP %s: %5d certificates validated; %d of %d roots validate nothing (%.0f%%)\n",
			v, res.Validated, zero, store.Len(), 100*float64(zero)/float64(store.Len()))
	}
}
