package geom

import (
	"fmt"
	"sort"
	"strings"
)

// TimeSet is a set T' ⊆ T of timestamps used by the temporal restriction
// operator G|T' (Definition 7). The paper enumerates the useful forms: a
// collection of points in time, (open) intervals, and sets of re-occurring
// intervals ("only data during a specific time period every day"); each has
// a concrete implementation below.
type TimeSet interface {
	// Contains reports whether t is in the set.
	Contains(t Timestamp) bool
	// String renders the time set in the query-language syntax.
	String() string
}

// AllTime contains every timestamp.
type AllTime struct{}

func (AllTime) Contains(Timestamp) bool { return true }
func (AllTime) String() string          { return "alltime()" }

// Instants is an explicit finite set of timestamps.
type Instants struct {
	set map[Timestamp]struct{}
}

// NewInstants builds an instant set from the given timestamps.
func NewInstants(ts ...Timestamp) *Instants {
	s := &Instants{set: make(map[Timestamp]struct{}, len(ts))}
	for _, t := range ts {
		s.set[t] = struct{}{}
	}
	return s
}

func (s *Instants) Contains(t Timestamp) bool { _, ok := s.set[t]; return ok }
func (s *Instants) Len() int                  { return len(s.set) }

func (s *Instants) String() string {
	ts := make([]Timestamp, 0, len(s.set))
	for t := range s.set {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = fmt.Sprintf("%d", t)
	}
	return "instants(" + strings.Join(parts, ", ") + ")"
}

// Interval is the half-open interval [Start, End). An interval with
// End <= Start is empty. Use OpenEnd for "from Start onwards".
type Interval struct {
	Start, End Timestamp
}

// OpenEnd marks an interval that never ends.
const OpenEnd = Timestamp(1<<63 - 1)

// NewInterval constructs [start, end).
func NewInterval(start, end Timestamp) Interval { return Interval{Start: start, End: end} }

// Since constructs [start, ∞).
func Since(start Timestamp) Interval { return Interval{Start: start, End: OpenEnd} }

func (iv Interval) Contains(t Timestamp) bool { return t >= iv.Start && t < iv.End }
func (iv Interval) Empty() bool               { return iv.End <= iv.Start }

func (iv Interval) String() string {
	if iv.End == OpenEnd {
		return fmt.Sprintf("since(%d)", iv.Start)
	}
	return fmt.Sprintf("interval(%d, %d)", iv.Start, iv.End)
}

// Recurring is a set of re-occurring intervals: timestamps t with
// (t mod Period) ∈ [Offset, Offset+Length). With Period = one day of sector
// ids this expresses "only data during a specific time period every day".
type Recurring struct {
	Period Timestamp
	Offset Timestamp
	Length Timestamp
}

// NewRecurring validates and constructs a recurring time set.
func NewRecurring(period, offset, length Timestamp) (Recurring, error) {
	if period <= 0 {
		return Recurring{}, fmt.Errorf("geom: recurring period must be positive, got %d", period)
	}
	if offset < 0 || offset >= period {
		return Recurring{}, fmt.Errorf("geom: recurring offset %d out of [0, %d)", offset, period)
	}
	if length <= 0 || length > period {
		return Recurring{}, fmt.Errorf("geom: recurring length %d out of (0, %d]", length, period)
	}
	return Recurring{Period: period, Offset: offset, Length: length}, nil
}

func (r Recurring) Contains(t Timestamp) bool {
	if r.Period <= 0 {
		return false
	}
	m := t % r.Period
	if m < 0 {
		m += r.Period
	}
	d := m - r.Offset
	if d < 0 {
		d += r.Period
	}
	return d < r.Length
}

func (r Recurring) String() string {
	return fmt.Sprintf("recurring(%d, %d, %d)", r.Period, r.Offset, r.Length)
}

// TimeIntersect is the intersection of several time sets; the temporal
// restriction-merge rewrite G|T1|T2 ⇒ G|(T1 ∩ T2) produces these.
type TimeIntersect struct {
	Parts []TimeSet
}

// IntersectTime combines time sets into their intersection.
func IntersectTime(parts ...TimeSet) TimeSet {
	switch len(parts) {
	case 0:
		return AllTime{}
	case 1:
		return parts[0]
	}
	return TimeIntersect{Parts: parts}
}

func (x TimeIntersect) Contains(t Timestamp) bool {
	for _, p := range x.Parts {
		if !p.Contains(t) {
			return false
		}
	}
	return true
}

func (x TimeIntersect) String() string {
	parts := make([]string, len(x.Parts))
	for i, p := range x.Parts {
		parts[i] = p.String()
	}
	return "timeintersect(" + strings.Join(parts, ", ") + ")"
}
