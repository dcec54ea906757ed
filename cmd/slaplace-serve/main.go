// Command slaplace-serve runs the placement controller as a long-lived
// HTTP service: clients POST cluster snapshots (or deltas against the
// previous one) to /v1/plan and receive placement plans, typed action
// deltas, and plan-reuse statistics in return. Sessions are keyed by
// cluster ID, so one daemon serves many clusters, each keeping the
// controller's incremental re-planning state warm across requests.
//
// With -state-dir the daemon is durable: every session checkpoints its
// minimal restart state there (atomically, per -checkpoint-every), and
// sessions come back — plan sequences byte-identical — after kill -9.
// Checkpoints also travel: GET /v1/sessions/{cluster}/checkpoint
// exports one, PUT restores it into another daemon.
//
// Several daemons sharing a -state-dir form a replica fleet (fronted
// by cmd/slaplace-proxy): give each a -replica-id (its advertised base
// URL) and the others' URLs in -peers. Per-cluster claim files make
// crash adoption exactly-once, /v1/readyz splits readiness from
// /v1/healthz liveness, and SIGTERM drains gracefully — final
// checkpoint per session, hand-off to the ring-chosen peer, then exit
// — so rolling restarts lose zero plan cycles.
//
// Usage:
//
//	slaplace-serve -addr :8080 -state-dir /var/lib/slaplace
//
// Try it:
//
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/readyz
//	curl -s -X POST localhost:8080/v1/plan -d @snapshot.json
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/sessions/default/checkpoint
//
// With -forecast the daemon plans predictively: each session forecasts
// next-cycle demand per application (constant, holt, or ar predictor
// with Dynamo-style correction feedback) and places against the
// prediction instead of the last observation. "-forecast X" is the
// plan request's {"predictor": "X"} forecast hint applied to every new
// session; a request's own hint wins. The forecaster's state rides the
// checkpoint, so prediction survives restarts and failover.
//
// Clients may negotiate the compact binary codec per request with
// "Content-Type: application/x-slaplace-binary" (request body) and
// "Accept: application/x-slaplace-binary" (response); JSON remains the
// default. See the api package for the wire schema; e2e_test.go drives
// a built daemon through a crash and restart.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"slaplace/api"
	"slaplace/internal/experiments"
	"slaplace/internal/serve"
)

// sessionSpec maps the -controller and -forecast flags onto the
// controller spec the scenario format uses: "static60" is the static
// baseline at batch fraction 0.6, every other name is a spec kind.
// Every replica of a fleet must run the same controller — a checkpoint
// refuses to restore under a different one.
func sessionSpec(controller, predictor string) experiments.ControllerJSON {
	spec := experiments.ControllerJSON{Kind: controller}
	if controller == "static60" {
		spec = experiments.ControllerJSON{Kind: "static", BatchFraction: 0.6}
	}
	if predictor != "" {
		spec.Forecast = &api.ForecastConfig{Predictor: predictor}
	}
	return spec
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (use port 0 for an ephemeral port; the bound address is logged)")
		maxSessions = flag.Int("max-sessions", 0, "maximum concurrent cluster sessions (0 = unlimited)")
		maxBody     = flag.Int64("max-body-bytes", serve.DefaultMaxBodyBytes, "maximum request body size in bytes")
		stateDir    = flag.String("state-dir", "", "directory for durable session checkpoints (empty = not durable)")
		ckEvery     = flag.Int("checkpoint-every", 1, "cycles between checkpoint writes per session (with -state-dir)")

		replicaID = flag.String("replica-id", "", "this replica's advertised base URL in a fleet (e.g. http://10.0.0.1:8080; empty = single-daemon mode)")
		peers     = flag.String("peers", "", "comma-separated base URLs of the other replicas (drain hand-off targets)")
		claimTTL  = flag.Duration("claim-ttl", 10*time.Second, "cluster claim age after which another replica may take it over")

		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout (slow-loris guard)")
		writeTimeout = flag.Duration("write-timeout", 2*time.Minute, "HTTP server write timeout (must cover the slowest plan cycle)")

		predictor  = flag.String("forecast", "", "enable demand forecasting for new sessions: constant, holt, or ar (empty = reactive; per-request hints still honored)")
		controller = flag.String("controller", "utility", "controller: utility (the paper's), fcfs, edf, fairshare, static60")
	)
	flag.Parse()

	spec := sessionSpec(*controller, *predictor)
	newCtrl, err := spec.Factory()
	fcCfg, fcErr := spec.ForecastConfig()
	if err = errors.Join(err, fcErr); err != nil {
		log.Printf("slaplace-serve: %v", err)
		os.Exit(2) // a bad flag value, like the flag package's own errors
	}
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			log.Fatalf("slaplace-serve: state dir: %v", err)
		}
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) > 0 && *replicaID == "" {
		log.Fatalf("slaplace-serve: -peers requires -replica-id")
	}

	srv := serve.New(serve.Options{
		NewController:   newCtrl,
		MaxSessions:     *maxSessions,
		MaxBodyBytes:    *maxBody,
		StateDir:        *stateDir,
		CheckpointEvery: *ckEvery,
		ReplicaID:       *replicaID,
		Peers:           peerList,
		StaleClaimAfter: *claimTTL,
		Forecast:        fcCfg,
		Logf:            log.Printf,
	})
	httpSrv := serve.NewHTTPServer(srv.Handler(), *readTimeout, *writeTimeout)

	// Listen before announcing so "-addr 127.0.0.1:0" logs the port the
	// kernel actually picked — scripts (and the e2e test) parse it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("slaplace-serve: %v", err)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sigs
		// Graceful drain: readiness flips to draining first (the
		// coordinator stops routing here), every session hands its final
		// checkpoint to a ring-chosen peer, and only then does the
		// listener close — a rolling restart loses zero plan cycles.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("slaplace-serve: drain: %v", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("slaplace-serve: shutdown: %v", err)
		}
	}()

	log.Printf("slaplace-serve: listening on %s (schema v%d)", ln.Addr(), api.SchemaVersion)
	if *stateDir != "" {
		// Eager restore, after the listener is up: /v1/readyz reports
		// "restoring" until the scan completes, then flips ready.
		go func() {
			n, err := srv.ScanState()
			if err != nil {
				log.Printf("slaplace-serve: state scan: %v", err)
			}
			if n > 0 {
				log.Printf("slaplace-serve: state scan restored %d session(s)", n)
			}
		}()
	}
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("slaplace-serve: %v", err)
	}
	// Serve returns the instant Shutdown begins; wait for the drain to
	// finish so in-flight plans complete before exit.
	<-drained
}
