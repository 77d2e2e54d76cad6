package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"poilabel/internal/trace"
)

// Connection limits of the gateway's http.Server: a client gets
// readHeaderTimeout to finish its request line and headers (slowloris), and a
// keep-alive connection is dropped after idleTimeout without a request. Body
// reads and handler time are not bounded here — fits and checkpoints may
// legitimately be slow, and bodies are capped by size instead.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve runs handler on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests drain for up to
// shutdownTimeout (zero or negative waits indefinitely), any preCheckpoint
// hooks run (poiserve drains the background fit pipeline here), and, when ck
// is non-nil, a final checkpoint is written after the drain. Draining before
// checkpointing is the ordering the zero-lost-answers guarantee rests on —
// every request the server ever acknowledged is in the final snapshot, so a
// restart with -restore resumes as if the process had never died. Hook
// errors are logged, not fatal: a failed pipeline drain still leaves a
// consistent (if staler) state for the checkpoint to capture.
//
// Serve returns nil after a clean shutdown, the listener error if serving
// failed, and the drain or checkpoint error otherwise. It always closes ln.
func Serve(ctx context.Context, ln net.Listener, handler http.Handler, shutdownTimeout time.Duration, ck *Checkpointer, preCheckpoint ...func(context.Context) error) error {
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// The listener failed on its own; nothing to drain.
		return err
	case <-ctx.Done():
	}

	// The caller's ctx is already done by this point — deriving the drain
	// deadline from it would cancel the drain instantly.
	//lint:ignore ctxflow shutdown path: the parent context is already cancelled
	drainCtx := context.Background()
	if shutdownTimeout > 0 {
		var cancel context.CancelFunc
		drainCtx, cancel = context.WithTimeout(drainCtx, shutdownTimeout)
		defer cancel()
	}
	drainErr := srv.Shutdown(drainCtx)
	if drainErr != nil {
		// The timeout expired with requests still in flight; cut them off
		// rather than hanging forever. Their clients see a reset, which is
		// exactly what the load generator's retry accounting expects.
		srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	for _, hook := range preCheckpoint {
		// Same as the drain: the parent context is spent, the hooks get the
		// shutdown timeout on a fresh root.
		//lint:ignore ctxflow shutdown path: the parent context is already cancelled
		hookCtx := context.Background()
		if shutdownTimeout > 0 {
			var cancel context.CancelFunc
			hookCtx, cancel = context.WithTimeout(hookCtx, shutdownTimeout)
			defer cancel()
		}
		if err := hook(hookCtx); err != nil {
			trace.DefaultLogger().Warn(hookCtx, "pre-checkpoint hook failed", "err", err)
		}
	}
	if ck != nil {
		n, err := ck.Checkpoint()
		if err != nil {
			return fmt.Errorf("serve: final checkpoint: %w", err)
		}
		trace.DefaultLogger().Info(drainCtx, "final checkpoint", "bytes", n, "path", ck.Path())
	}
	if drainErr != nil {
		return fmt.Errorf("serve: drain: %w", drainErr)
	}
	return nil
}

// ListenAndServe is Serve over a fresh TCP listener on addr.
func ListenAndServe(ctx context.Context, addr string, handler http.Handler, shutdownTimeout time.Duration, ck *Checkpointer, preCheckpoint ...func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return Serve(ctx, ln, handler, shutdownTimeout, ck, preCheckpoint...)
}
