package ledger

// Segments reports the on-disk segment count (incl. active); 0 for a
// memory-only ledger.
func (l *Ledger) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0
	}
	return len(l.sealed) + 1
}
