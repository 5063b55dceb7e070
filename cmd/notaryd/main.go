// Command notaryd runs the Notary as a network service, the role the ICSI
// Certificate Notary plays in the paper's pipeline (§4.2): sensors stream
// observed TLS chains in; analysis clients query records and run store
// validation remotely.
//
// Usage:
//
//	notaryd [-addr 127.0.0.1:7511] [-data DIR] [-checkpoint 5m]
//	        [-prefeed 20000] [-seed 1] [-debug 127.0.0.1:7581] [-shards N]
//
// The database is a notaryshard.Cluster of -shards notaries (default 1):
// observations are routed across the shards by leaf content address, each
// with its own chain cache, and queries are answered from the
// shard-ordered merged view — byte-identical at every width.
//
// -data DIR makes the database durable under DIR/shard-NNN, one WAL and
// snapshot generation per shard: on boot each shard recovers (newest
// checksummed snapshot plus write-ahead-journal replay), every accepted
// observation is journaled and fsynced before its acknowledgment is sent,
// a checkpoint runs every -checkpoint interval, and a graceful shutdown
// (SIGINT) drains connections and checkpoints the final state. Boot
// refuses a DIR written by a wider cluster and one holding a
// single-notary generation at its top level. Without -data the database
// is in-memory only.
//
// -prefeed N seeds the database from an N-leaf simulated TLS internet so a
// fresh daemon immediately answers validation queries; 0 starts empty.
// With -data, the prefeed runs only when recovery produced an empty
// database. -debug mounts the observability snapshot (ingest counters,
// sensor gauges, journal/checkpoint counters) as JSON on an HTTP listener.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"sync"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/obs"
	"tangledmass/internal/tlsnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("notaryd: ")
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7511", "listen address")
	flag.StringVar(&cfg.dataDir, "data", "", "durable data directory (empty: in-memory only)")
	flag.DurationVar(&cfg.checkpoint, "checkpoint", 5*time.Minute, "periodic checkpoint interval with -data (0 disables)")
	flag.IntVar(&cfg.prefeed, "prefeed", 20000, "pre-feed the database from an N-leaf simulated internet (0 = start empty)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the pre-feed world")
	flag.StringVar(&cfg.debug, "debug", "", "serve the observability snapshot over HTTP on this address (empty: disabled)")
	flag.IntVar(&cfg.shards, "shards", 1, "number of notary shards behind the consistent-hash router")
	flag.Parse()
	d, err := boot(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	log.Print("shutting down")
	if err := d.Close(); err != nil {
		log.Fatal(err)
	}
}

// config collects the daemon's knobs — a plain struct so the lifecycle
// tests can boot daemons without touching flags.
type config struct {
	addr       string
	dataDir    string
	checkpoint time.Duration
	prefeed    int
	seed       int64
	debug      string
	shards     int
}

// daemon is one running notaryd: the cluster, the network server and the
// optional debug listener, with Close tearing them down in drain order.
type daemon struct {
	srv     *notarynet.Server
	cluster *notaryshard.Cluster
	debugLn interface{ Close() error }

	stopCheckpoint chan struct{}
	checkpointDone sync.WaitGroup
	closeOnce      sync.Once
	closeErr       error
}

// boot builds a daemon from cfg: recover (or create) the cluster, prefeed
// if empty, start serving, start the checkpoint loop.
func boot(cfg config) (*daemon, error) {
	observer := obs.New()
	durable := cfg.dataDir != ""
	var cluster *notaryshard.Cluster
	var err error
	if durable {
		cluster, err = notaryshard.Open(faultfs.Disk, cfg.dataDir, certgen.Epoch, cfg.shards, notaryshard.WithObserver(observer))
	} else {
		cluster, err = notaryshard.New(certgen.Epoch, cfg.shards, notaryshard.WithObserver(observer))
	}
	if err != nil {
		return nil, err
	}
	log.Printf("%d shards hold %d sessions", cfg.shards, cluster.Sessions())

	if cfg.prefeed > 0 && cluster.Sessions() == 0 && cluster.NumUnique() == 0 {
		log.Printf("pre-feeding from a %d-leaf simulated TLS internet (seed %d)...", cfg.prefeed, cfg.seed)
		world, err := tlsnet.NewWorld(tlsnet.Config{Seed: cfg.seed, NumLeaves: cfg.prefeed})
		if err == nil {
			err = tlsnet.FeedTo(world, cluster)
		}
		// The prefeed is journaled as it goes; one checkpoint folds it
		// into a snapshot before anything is served.
		if err == nil {
			err = cluster.Checkpoint()
		}
		if err != nil {
			_ = cluster.Close()
			return nil, err
		}
	}

	srv, err := notarynet.NewServer(cluster, cfg.addr, notarynet.WithObserver(observer))
	if err != nil {
		_ = cluster.Close()
		return nil, err
	}
	log.Printf("serving on %s", srv.Addr())

	d := &daemon{srv: srv, cluster: cluster, stopCheckpoint: make(chan struct{})}
	if cfg.debug != "" {
		// The cluster snapshot merges the shared observer (server and
		// router) with every shard's private one.
		ln, err := obs.ServeDebugFunc(cfg.debug, cluster.Snapshot)
		if err != nil {
			_ = d.Close()
			return nil, err
		}
		d.debugLn = ln
		log.Printf("debug listening on %s", ln.Addr())
	}

	if durable && cfg.checkpoint > 0 {
		d.checkpointDone.Add(1)
		go func() {
			defer d.checkpointDone.Done()
			ticker := time.NewTicker(cfg.checkpoint)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := d.cluster.Checkpoint(); err != nil {
						log.Printf("checkpoint: %v", err)
					}
				case <-d.stopCheckpoint:
					return
				}
			}
		}()
	}
	return d, nil
}

// Close drains the daemon: stop the checkpoint loop, stop accepting and
// finish in-flight requests, then checkpoint the final state and release
// the journals. Safe to call more than once.
func (d *daemon) Close() error {
	d.closeOnce.Do(func() {
		close(d.stopCheckpoint)
		d.checkpointDone.Wait()
		if d.debugLn != nil {
			_ = d.debugLn.Close()
		}
		err := d.srv.Close()
		// After the drain: every acknowledged observation is already
		// fsynced in a journal; the final checkpoint folds them into one
		// clean snapshot generation per shard.
		if cerr := d.cluster.Close(); err == nil {
			err = cerr
		}
		d.closeErr = err
	})
	return d.closeErr
}
