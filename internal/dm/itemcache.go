package dm

// Decoded-item cache: an epochcache.Cache of decoded archive items (raw
// units as photon record tables, wavelet views as *wavelet.Encoded) keyed
// by item id and budgeted in resident bytes. RawPhotons and ViewsInRange
// read through it (readDecoded, namemap.go) so that the units under a
// window are inflated once, not once per analysis.
//
// Its epoch is the constant struct{}{}: item ids are never reused and an
// item's bytes are write-once on every tier (pl's CacheKey and asof.go rely
// on the same facts), so an entry can never be stale. Everything that CAN
// change — the name mapping, visibility, which archives are mounted — lives
// in location tuples, and readDecoded re-checks those on every call, hit or
// miss.
//
// Ingest writes around it (LoadUnit neither reads nor fills), and the
// budget is a constant: the entries are the compact on-disk record form,
// so 64 MiB holds about 3.7 M photons.

const decodedBudget = 64 << 20 // bytes of decoded payload resident at most
