package lifecycle

import "edem/internal/durable"

// Journal and OpenJournal give the journal tests the record-appending
// handle they drive: a durable.Log that marshals each record with
// appendJSON, the path Monitor and the async diff writer take.
type Journal struct{ l *durable.Log }

func OpenJournal(path string) (*Journal, error) {
	l, err := durable.OpenLog(path)
	if err != nil {
		return nil, err
	}
	return &Journal{l: l}, nil
}

func (j *Journal) Append(rec any) error { return appendJSON(j.l, rec) }
func (j *Journal) Close() error         { return j.l.Close() }
