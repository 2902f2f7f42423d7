package statestore

// Key names one cell of the world state. A KeyValue key is {key, KeyValue};
// an account's two balances are {id, Checking} and {id, Savings}, and no
// other Part exists. The parts keep the namespaces apart, so a KeyValue key
// never aliases a balance whatever its spelling.
type Key struct {
	Name string
	Part uint8
}

// The parts of a Key.
const (
	KeyValue uint8 = iota // a KeyValue key
	Checking              // an account's checking balance
	Savings               // an account's savings balance
)

// String renders the key as the string-keyed store spelled it: the bare
// KeyValue key, or acct/<id>/checking and acct/<id>/savings.
func (k Key) String() string {
	switch k.Part {
	case Checking:
		return "acct/" + k.Name + "/checking"
	case Savings:
		return "acct/" + k.Name + "/savings"
	default:
		return k.Name
	}
}

// slot is a key's dense position in the columns of every store on one Index.
type slot uint32

// Index gives each key of one network a dense slot the first time a store
// on it writes the key, and hands out the same slot to every store after.
// The replicas of a network share one Index, so each key is hashed and held
// once per network rather than once per replica; which slot a key gets is
// never observable. The index keeps one map per part, keyed by the name
// alone, so a lookup hashes one string. Only the clock's event loop
// touches it, so it takes no lock.
type Index struct {
	parts [Savings + 1]map[string]slot
	n     int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	x := &Index{}
	for p := range x.parts {
		x.parts[p] = make(map[string]slot)
	}
	return x
}

// NewKVStore returns an empty store whose keys are slotted by x.
func (x *Index) NewKVStore() *KVStore {
	return &KVStore{index: x}
}

// lookup returns key's slot, if any store on x has written it.
func (x *Index) lookup(k Key) (slot, bool) {
	s, ok := x.parts[k.Part][k.Name]
	return s, ok
}

// assign returns key's slot, giving it the next free one the first time.
func (x *Index) assign(k Key) slot {
	m := x.parts[k.Part]
	s, ok := m[k.Name]
	if !ok {
		s = slot(x.n)
		m[k.Name] = s
		x.n++
	}
	return s
}
