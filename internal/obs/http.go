package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// HTTP export: the one way metrics and profiles leave a running process.
// Handler mounts the registry's JSON and text snapshots alongside
// net/http/pprof on a private mux (never http.DefaultServeMux, so two
// registries — or two tests — can serve independently).
//
//	/metrics       expvar-style JSON snapshot of every metric
//	/metrics.txt   line-oriented text rendering (sorted, grep-friendly)
//	/trace         buffered tracer spans, text, oldest first
//	/debug/pprof/  the standard pprof index, profiles, and traces
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		s := r.Snapshot()
		if scope := req.URL.Query().Get("scope"); scope != "" {
			s = s.Scoped(scope)
		}
		_ = s.WriteJSON(w)
	})
	mux.HandleFunc("/metrics.txt", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s := r.Snapshot()
		if scope := req.URL.Query().Get("scope"); scope != "" {
			s = s.Scoped(scope)
		}
		_, _ = s.WriteText(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(r.Tracer().String()))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeFlag is what every command's -metrics flag does. With an address it
// turns on wall-clock span tracing on reg, the registry the command's run
// records into, and serves it there (Handler) from a background goroutine,
// reporting a listen failure on stderr; it returns a stop function to
// defer, which returns once the server has exited. With an empty address
// it returns a no-op.
func ServeFlag(addr string, reg *Registry) func() {
	if addr == "" {
		return func() {}
	}
	reg.EnableTracing(4096, func() int64 { return time.Now().UnixNano() })
	srv := &http.Server{Addr: addr, Handler: Handler(reg)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "metrics server:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	return func() {
		_ = srv.Close() // a failed close of a stopping server has no one to tell
		<-done
	}
}
