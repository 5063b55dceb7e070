package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/faultnet"
	"tangledmass/internal/loadgen"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/obs"
)

// cmdLoadgen drives sustained synthetic ingest traffic at a notary
// service and optionally gates on the measured p99 and error budget —
// the engine behind `make slo-gate` and the CI slo-smoke step. With no
// -addr it boots a sharded in-process topology (notaryshard cluster
// behind a notarynet server) so the gate measures the full wire path
// with zero external setup.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "", "existing notaryd address (default: boot an in-process sharded topology)")
	shards := fs.Int("shards", 4, "shard count for the in-process topology")
	sessions := fs.Int("sessions", 2000, "total observations to send")
	clients := fs.Int("clients", 4, "concurrent clients")
	batch := fs.Int("batch", 64, "observations per request")
	leaves := fs.Int("leaves", 300, "synthetic leaf population")
	seed := fs.Int64("seed", 1, "world seed")
	rate := fs.Float64("rate", 0, "observations/second across all clients (0 = unthrottled)")
	faultSeed := fs.Int64("fault-seed", 0, "inject dial-path faults with this seed (0 = none)")
	p99Gate := fs.Float64("p99-ms", 0, "fail if ingest p99 exceeds this many ms (0 = report only)")
	errBudget := fs.Float64("error-budget", 0, "max tolerated request error rate when gating")
	jsonOut := fs.String("json", "", "write the machine-readable SLO document here")
	label := fs.String("label", "loadgen", "label recorded in the SLO document")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() != 0 {
		return errUsage
	}

	target := *addr
	var cluster *notaryshard.Cluster
	if target == "" {
		var err error
		cluster, err = notaryshard.New(certgen.Epoch, *shards)
		if err != nil {
			return err
		}
		srv, err := notarynet.NewServer(cluster, "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		target = srv.Addr()
		fmt.Printf("booted %d-shard in-process notary at %s\n", *shards, target)
	}

	cfg := loadgen.Config{
		Addr:      target,
		Sessions:  *sessions,
		Clients:   *clients,
		Batch:     *batch,
		Rate:      *rate,
		Seed:      *seed,
		NumLeaves: *leaves,
		Observer:  obs.New(),
	}
	if *faultSeed != 0 {
		cfg.Faults = faultnet.New(faultnet.Plan{
			Seed:        *faultSeed,
			RefuseProb:  0.03,
			LatencyProb: 0.10,
			ResetProb:   0.02,
			StallProb:   0.01,
		})
	}
	rep, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		return err
	}

	slo := loadgen.SLO{MaxP99Ms: *p99Gate, MaxErrorRate: *errBudget}
	var violations []string
	if *p99Gate > 0 {
		violations = rep.Check(slo)
	}

	doc := map[string]any{
		"label":          *label,
		"generated_unix": time.Now().Unix(),
		"config": map[string]any{
			"addr": *addr, "shards": *shards, "sessions": *sessions, "clients": *clients,
			"batch": *batch, "leaves": *leaves, "seed": *seed, "rate": *rate,
			"fault_seed": *faultSeed,
		},
		"slo":        slo,
		"report":     rep,
		"p99_ms":     rep.P99(),
		"error_rate": rep.ErrorRate(),
		"throughput": rep.Throughput(),
		"pass":       len(violations) == 0,
		"violations": violations,
	}
	if cluster != nil {
		snap := cluster.Snapshot()
		shardP99 := make([]float64, cluster.NumShards())
		for i := range shardP99 {
			shardP99[i] = cluster.ShardSnapshot(i).Hists[notaryshard.KeyShardIngestLatency].Quantile(0.99)
		}
		doc["service"] = map[string]any{
			"shards":        cluster.NumShards(),
			"router_p99_ms": snap.Hists[notaryshard.KeyIngestLatency].Quantile(0.99),
			"shard_p99_ms":  shardP99,
			"unique":        cluster.NumUnique(),
			"unexpired":     cluster.NumUnexpired(),
			"sessions":      cluster.Sessions(),
		}
	}
	if *jsonOut != "" {
		body, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(body, '\n'), 0o644); err != nil {
			return err
		}
	}

	fmt.Printf("loadgen: %d/%d observations acked in %.0fms (%.0f obs/s), %d/%d requests failed\n",
		rep.Acked, rep.Sent, rep.ElapsedMs, rep.Throughput(), rep.FailedRequests, rep.Requests)
	fmt.Printf("latency: p50 %.3fms p90 %.3fms p99 %.3fms\n",
		rep.Latency.Quantile(0.50), rep.Latency.Quantile(0.90), rep.P99())
	if *p99Gate > 0 {
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "SLO VIOLATION: %s\n", v)
			}
			return fmt.Errorf("SLO gate failed (%d violation(s))", len(violations))
		}
		fmt.Printf("SLO gate passed: p99 %.3fms <= %.1fms, error rate %.4f <= %.4f\n",
			rep.P99(), *p99Gate, rep.ErrorRate(), *errBudget)
	}
	return nil
}
