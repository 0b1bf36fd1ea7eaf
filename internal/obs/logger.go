package obs

import (
	"io"
	"log/slog"
	"os"
	"strings"
)

// Logger is a thin facade over log/slog shared by the DSMS server, hubs,
// and the cmd binaries. It exists so pipeline code logs through one
// narrow, nil-safe surface: a nil *Logger discards everything, which lets
// library types (Server, hub) carry an optional logger without nil checks
// at every call site.
type Logger struct {
	sl *slog.Logger
}

// NewLogger wraps an existing slog handler.
func NewLogger(h slog.Handler) *Logger { return &Logger{sl: slog.New(h)} }

// NewTextLogger builds a human-readable logfmt-style logger.
func NewTextLogger(w io.Writer, level slog.Level) *Logger {
	return NewLogger(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// NewJSONLogger builds a machine-readable JSON logger.
func NewJSONLogger(w io.Writer, level slog.Level) *Logger {
	return NewLogger(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// NewCLILogger builds the logger the cmd binaries share: format is "text"
// or "json", level one of debug/info/warn/error (default info). Output
// goes to stderr, keeping stdout for data (frames, tables, metrics).
func NewCLILogger(format, level string) *Logger {
	lv := ParseLevel(level)
	if format == "json" {
		return NewJSONLogger(os.Stderr, lv)
	}
	return NewTextLogger(os.Stderr, lv)
}

// ParseLevel maps a level name to a slog.Level, defaulting to Info.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	}
	return slog.LevelInfo
}

// With returns a logger with the given key-value pairs attached to every
// record (nil-safe: nil stays nil).
func (l *Logger) With(args ...any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{sl: l.sl.With(args...)}
}

// Info logs at info level; args are slog key-value pairs.
func (l *Logger) Info(msg string, args ...any) {
	if l != nil {
		l.sl.Info(msg, args...)
	}
}

// Warn logs at warn level.
func (l *Logger) Warn(msg string, args ...any) {
	if l != nil {
		l.sl.Warn(msg, args...)
	}
}

// Error logs at error level.
func (l *Logger) Error(msg string, args ...any) {
	if l != nil {
		l.sl.Error(msg, args...)
	}
}
