// Command gia-serve runs the fleet-as-a-service daemon: a long-lived HTTP/
// JSON API managing thousands of concurrent simulated devices (create,
// install, attack, chaos replay, reclaim) backed by per-shard device
// arenas. Load measurements come from the benchmark's fleet-http workload
// (bash benchmark/run.sh --workload fleet-http), which drives this daemon
// over HTTP from a separate process.
//
// Serve mode (default):
//
//	gia-serve -addr 127.0.0.1:8436 -shards 4 -idle-reclaim 5m
//
// Smoke mode — drives one device through the full HTTP lifecycle against
// an already-running daemon (used by verify.sh):
//
//	gia-serve -smoke http://127.0.0.1:8436
//
// Watch mode — polls a running daemon's /slo once per second and prints a
// one-line fleet summary (tx, rolling error rate, p50/p99, per-shard):
//
//	gia-serve -watch http://127.0.0.1:8436
//
// The fleet keeps an always-on flight recorder: one bounded ring of trace
// events per device, sized by -flight-recorder-depth. With -dump-dir set,
// chaos replay violations, serve transaction errors and failed arena
// resets each dump their ring tails retroactively as Chrome-trace JSON +
// JSONL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so a stalled or hostile client cannot pin a connection.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8436", "listen address (host:port; port 0 picks a free port)")
		shards      = flag.Int("shards", 4, "goroutine-owned device arena shards")
		seed        = flag.Int64("seed", 2017, "base seed for per-device RNG streams")
		idleReclaim = flag.Duration("idle-reclaim", 0, "reclaim devices idle this long to their shard pool (0 disables)")
		flightDepth = flag.Int("flight-recorder-depth", 0, "per-device flight-recorder ring depth in events (0 = default, negative disables)")
		dumpDir     = flag.String("dump-dir", "", "dump flight-recorder tails here on replay violations, tx errors and failed arena resets")

		smoke = flag.String("smoke", "", "run the HTTP smoke sequence against a daemon at this URL, then exit")
		watch = flag.String("watch", "", "poll /slo at this daemon URL once per second and print one-line summaries")
	)
	flag.Parse()

	if *smoke != "" {
		if err := runSmoke(*smoke); err != nil {
			fmt.Fprintf(os.Stderr, "gia-serve: smoke failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("gia-serve: smoke ok")
		return
	}
	if *watch != "" {
		if err := runWatch(*watch); err != nil {
			fmt.Fprintf(os.Stderr, "gia-serve: watch: %v\n", err)
			os.Exit(1)
		}
		return
	}

	reg := obs.NewRegistry()
	fleet := serve.NewFleet(serve.Config{
		Shards:      *shards,
		Seed:        *seed,
		IdleReclaim: *idleReclaim,
		FlightDepth: *flightDepth,
		DumpDir:     *dumpDir,
		Registry:    reg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gia-serve: listen: %v\n", err)
		os.Exit(1)
	}
	// Only the header read is bounded: a whole-request or write deadline
	// would also cut the long-lived /events and ?follow=1 trace streams.
	// Request bodies are bounded in size by the handler.
	srv := &http.Server{Handler: serve.NewHandler(fleet, reg), ReadHeaderTimeout: readHeaderTimeout}
	// The listening line is the daemon's readiness signal; verify.sh and
	// scripts scrape the URL from it (port 0 resolves here).
	fmt.Printf("gia-serve: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "gia-serve: serve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
	}
	stop()

	// Graceful shutdown: stop accepting, drain HTTP handlers, then drain
	// the fleet's in-flight transactions.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gia-serve: shutdown: %v\n", err)
	}
	fleet.Close()
	fmt.Println("gia-serve: drained and stopped")
}
