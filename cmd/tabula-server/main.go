// Command tabula-server runs the Tabula middleware as an HTTP service:
// it loads or generates a dataset, optionally pre-builds a sampling cube,
// and serves dashboard queries.
//
// Usage:
//
//	tabula-server -addr :8080 -taxi-rows 100000 \
//	  -init "CREATE TABLE taxi_cube AS SELECT payment_type, vendor_name, SAMPLING(*, 0.1) AS sample FROM nyctaxi GROUPBY CUBE(payment_type, vendor_name) HAVING mean_loss(fare_amount, Sam_global) > 0.1"
//
// then:
//
//	curl -s localhost:8080/v1/query -d '{"cube":"taxi_cube","where":{"payment_type":"cash"}}'
//	curl -s localhost:8080/v1/metrics
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests get a drain window, and request contexts
// are cancelled so long scans abort instead of writing to dead sockets.
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

	"github.com/tabula-db/tabula"
	"github.com/tabula-db/tabula/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		taxiRows  = flag.Int("taxi-rows", 100000, "rows of synthetic NYCtaxi data to register as 'nyctaxi' (0 to skip)")
		seed      = flag.Int64("seed", 42, "generator seed")
		initSQL   = flag.String("init", "", "semicolon-separated statements to execute at startup")
		cubeFile  = flag.String("load-cube", "", "load a persisted cube file and register it as 'cube'")
		drainTime = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		workers   = flag.Int("workers", 0, "worker budget for every cube-initialization stage (0 = GOMAXPROCS)")
		gzipOn    = flag.Bool("gzip", true, "send gzip bodies, stitched from each sample's precompressed bytes, to clients that accept them")
		metricsOn = flag.Bool("metrics", true, "record metrics and expose them at GET /v1/metrics")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var registry *tabula.MetricsRegistry // nil = metrics off end to end
	if *metricsOn {
		registry = tabula.NewMetricsRegistry()
	}
	db := tabula.Open(tabula.WithWorkers(*workers), tabula.WithMetrics(registry))
	if *taxiRows > 0 {
		log.Printf("generating %d synthetic taxi rides ...", *taxiRows)
		db.RegisterTable("nyctaxi", tabula.GenerateTaxi(*taxiRows, *seed))
	}
	if *cubeFile != "" {
		f, err := os.Open(*cubeFile)
		if err != nil {
			log.Fatalf("tabula-server: %v", err)
		}
		cube, err := tabula.LoadCube(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("tabula-server: loading cube: %v", err)
		}
		db.RegisterCube("cube", cube)
		log.Printf("loaded cube from %s (%d samples, theta=%g)", *cubeFile, cube.NumPersistedSamples(), cube.Theta())
	}
	if *initSQL != "" {
		for _, stmt := range strings.Split(*initSQL, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			res, err := db.Exec(ctx, stmt)
			if err != nil {
				log.Fatalf("tabula-server: init statement failed: %v", err)
			}
			if res.Message != "" {
				log.Print(res.Message)
			}
		}
	}

	srv := newHTTPServer(ctx, *addr, server.New(db,
		server.WithGzip(*gzipOn),
		server.WithMetrics(registry),
		server.WithPprof(*pprofOn)), defaultTimeouts)
	errc := make(chan error, 1)
	go func() {
		log.Printf("tabula middleware listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatalf("tabula-server: %v", err)
	case <-ctx.Done():
		log.Printf("signal received; draining for up to %s ...", *drainTime)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTime)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("tabula-server: shutdown: %v", err)
		}
		<-errc // ListenAndServe returns http.ErrServerClosed
		log.Print("tabula-server: stopped cleanly")
	}
}

// timeouts are the listening server's connection timeouts.
type timeouts struct {
	readHeader time.Duration // to send a request's headers
	read       time.Duration // to send a whole request, body included
	idle       time.Duration // an idle keep-alive connection lives
}

// defaultTimeouts stop slow or abandoned clients from pinning
// connections: headers must arrive within 10 s and a whole request
// within a minute (the largest body, a 16 MiB append, takes well under
// that on any working link), and an idle keep-alive connection is
// closed after 2 min. The read deadline covers receiving the request
// only: net/http clears it once the body has been read to its end (or
// at once for a request without one), so a handler that runs past it
// keeps a live context (TestLongRequestOutlivesTimeouts).
// There is no write timeout: a POST /v1/exec that builds a cube can
// legitimately run for minutes before it answers.
var defaultTimeouts = timeouts{readHeader: 10 * time.Second, read: time.Minute, idle: 2 * time.Minute}

// newHTTPServer builds the listening server for handler. Request
// contexts derive from ctx, so cancelling it when the serve loop exits
// aborts in-flight scans that exceed the drain window.
func newHTTPServer(ctx context.Context, addr string, handler http.Handler, t timeouts) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		IdleTimeout:       t.idle,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
}
