package backend

// CopyFrom overwrites q with a deep copy of src, reusing q's ring
// buffer when it has room.
func (q *IDQ) CopyFrom(src *IDQ) {
	buf := q.buf
	*q = *src
	q.buf = append(buf[:0], src.buf...)
}
