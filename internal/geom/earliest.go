package geom

// EarliestStart is the lower bound EarliestTime reports for time sets
// with no lower bound of their own (alltime, recurring): every retained
// sector qualifies.
const EarliestStart = Timestamp(-1 << 63)

// EarliestTime returns the earliest timestamp that can be a member of
// the set — the point from which a historical scan must start to feed a
// temporal restriction without missing anything. Sets with no lower
// bound (alltime, recurring) report EarliestStart; an empty set reports
// OpenEnd (no history qualifies).
func EarliestTime(ts TimeSet) Timestamp {
	switch s := ts.(type) {
	case AllTime:
		return EarliestStart
	case Recurring:
		return EarliestStart
	case Interval:
		if s.Empty() {
			return OpenEnd
		}
		return s.Start
	case *Instants:
		if s.Len() == 0 {
			return OpenEnd
		}
		min := OpenEnd
		for t := range s.set {
			if t < min {
				min = t
			}
		}
		return min
	case TimeIntersect:
		// The intersection starts no earlier than its latest-starting
		// part; an empty intersection list is alltime.
		if len(s.Parts) == 0 {
			return EarliestStart
		}
		max := EarliestStart
		for _, p := range s.Parts {
			if e := EarliestTime(p); e > max {
				max = e
			}
		}
		return max
	default:
		// Unknown set: be conservative, scan everything retained.
		return EarliestStart
	}
}
