package ipt

// StoredTips returns how many TIP records d's backing storage holds —
// the live ones plus those DropBefore dropped and not yet compacted away
// — and that storage's capacity.
func StoredTips(d *WindowDecoder) (n, capacity int) { return len(d.tips), cap(d.tips) }

// CarryCap returns the capacity of d's truncated-packet carry.
func CarryCap(d *WindowDecoder) int { return cap(d.carry) }
