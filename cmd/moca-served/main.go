// Command moca-served is the long-running simulation server: it accepts
// jobs from any number of concurrent clients over the internal/wire
// protocol, multiplexes identical submissions onto single simulations
// (singleflight), shares one persistent run cache across all of them, and
// streams progress and live metrics back while runs execute.
//
// Usage:
//
//	moca-served [-addr HOST:PORT] [-cache-dir DIR]
//
// Clients: moca-sim -remote HOST:PORT, or internal/wire/client.
//
// SIGINT/SIGTERM drains gracefully: the listener closes, in-flight jobs
// finish within the drain window, and a second signal forces exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"moca/internal/cmdutil"
	"moca/internal/exp"
	"moca/internal/wire/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:7654", "listen address")
	measure := flag.Uint64("measure", 300_000, "default measured instructions per core (SUBMIT may override)")
	window := flag.Uint64("profile-window", 300_000, "default profiling window (SUBMIT may override)")
	cacheDir := flag.String("cache-dir", os.Getenv("MOCA_CACHE_DIR"), "persistent run-cache directory (default $MOCA_CACHE_DIR; empty = disabled)")
	cacheMode := flag.String("cache", envOr("MOCA_CACHE", "write"), "persistent cache mode: off, read, or write (default $MOCA_CACHE or write)")
	drain := flag.Duration("drain", time.Minute, "graceful-shutdown window for in-flight jobs")
	readTimeout := flag.Duration("read-timeout", 5*time.Minute, "idle-connection read timeout")
	flag.Parse()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "moca-served: "+format+"\n", args...)
		return 1
	}

	ctx, stop := cmdutil.NotifyContext(context.Background(), "moca-served")
	defer stop()

	cfg := server.Config{
		Measure:       *measure,
		ProfileWindow: *window,
		DrainTimeout:  *drain,
		ReadTimeout:   *readTimeout,
		Logf:          log.New(os.Stderr, "moca-served: ", log.LstdFlags).Printf,
	}
	if *cacheDir != "" {
		mode, err := exp.ParseCacheMode(*cacheMode)
		if err != nil {
			return fail("%v", err)
		}
		cache, err := exp.OpenRunCache(*cacheDir, mode)
		if err != nil {
			return fail("%v", err)
		}
		cfg.Cache = cache
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("%v", err)
	}
	cfg.Logf("listening on %s", ln.Addr())
	if err := server.New(cfg).Serve(ctx, ln); err != nil {
		return fail("%v", err)
	}
	cfg.Logf("shut down cleanly")
	return 0
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}
