#include "ckpt/serializer.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace nda {

namespace {

// Framing constants. The magic spells "NDASCKPT" when the u64 is laid
// down little-endian; bumping kSchemaVersion invalidates every corpus
// entry at once (readers reject, the store rebuilds).
//
// Version history:
//   1 — original schema, single hardware thread.
//   2 — adds the THREADS section (SMT contexts 1..N-1). The writer
//       emits version 2 *only* when extra threads exist, so every
//       single-thread checkpoint stays byte-identical to version 1
//       and the whole v1 corpus remains loadable.
constexpr std::uint64_t kMagic = 0x54504B435341444EULL;
constexpr std::uint32_t kSchemaVersion = 1;
constexpr std::uint32_t kSchemaVersionSmt = 2;

enum SectionId : std::uint32_t {
    kArchSection = 1,      ///< registers, MSRs, PC, counters
    kMemMapSection = 2,    ///< resident functional-memory pages
    kTaintSection = 3,     ///< architectural DIFT taint image
    kHierSection = 4,      ///< cache geometry + tag/LRU warming state
    kPredictorSection = 5, ///< predictor geometry + table state
    kThreadsSection = 6,   ///< SMT threads 1..N-1 (schema v2+)
};

// ---------------------------------------------------------------------------
// Little-endian primitives
// ---------------------------------------------------------------------------

void
putU8(std::vector<std::uint8_t> &b, std::uint8_t v)
{
    b.push_back(v);
}

void
putU32(std::vector<std::uint8_t> &b, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &b, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putBytes(std::vector<std::uint8_t> &b, const std::uint8_t *data,
         std::size_t len)
{
    b.insert(b.end(), data, data + len);
}

void
putString(std::vector<std::uint8_t> &b, const std::string &s)
{
    putU32(b, static_cast<std::uint32_t>(s.size()));
    putBytes(b, reinterpret_cast<const std::uint8_t *>(s.data()),
             s.size());
}

/**
 * Bounds-checked reading cursor. Every accessor is a no-op returning
 * zero once `fail()` has fired, so parse code reads linearly and
 * checks once per section — corrupt input can produce garbage values
 * but never an out-of-bounds access or a surprise exception.
 */
struct Cursor {
    const std::uint8_t *data;
    std::size_t len;
    std::size_t pos = 0;
    bool failed = false;
    std::string error = {};

    void
    fail(const std::string &why)
    {
        if (!failed) {
            failed = true;
            error = why;
        }
    }

    bool
    need(std::size_t n)
    {
        if (failed)
            return false;
        if (len - pos < n) {
            fail("truncated input");
            return false;
        }
        return true;
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data[pos++];
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
        return v;
    }

    void
    bytes(std::uint8_t *out, std::size_t n)
    {
        if (const std::uint8_t *in = span(n))
            std::memcpy(out, in, n);
    }

    /** The next `n` bytes in place (null once failed). */
    const std::uint8_t *
    span(std::size_t n)
    {
        if (!need(n))
            return nullptr;
        pos += n;
        return data + pos - n;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
        return s;
    }

    /**
     * An element count embedded in the payload. Rejecting counts
     * whose minimum encoding exceeds the remaining bytes keeps a
     * flipped length byte from turning into a multi-gigabyte
     * allocation before the truncation check would fire.
     */
    std::uint64_t
    count(std::size_t min_elem_bytes)
    {
        const std::uint64_t n = u64();
        if (!failed && min_elem_bytes > 0 &&
            n > (len - pos) / min_elem_bytes) {
            fail("implausible element count");
            return 0;
        }
        return n;
    }
};

// ---------------------------------------------------------------------------
// Section payloads
// ---------------------------------------------------------------------------

void
writeArch(std::vector<std::uint8_t> &b, const ArchState &a)
{
    for (int r = 0; r < kNumArchRegs; ++r)
        putU64(b, a.regs[r]);
    putU64(b, a.pc);
    putU64(b, a.instCount);
    putU64(b, a.faultCount);
    putU64(b, a.lastFetchLine);
    putU8(b, a.halted ? 1 : 0);
    for (int m = 0; m < kNumMsrRegs; ++m)
        putU64(b, a.msrs[m]);
}

void
readArch(Cursor &c, ArchState &a)
{
    for (int r = 0; r < kNumArchRegs; ++r)
        a.regs[r] = c.u64();
    a.pc = c.u64();
    a.instCount = c.u64();
    a.faultCount = c.u64();
    a.lastFetchLine = c.u64();
    a.halted = c.u8() != 0;
    for (int m = 0; m < kNumMsrRegs; ++m)
        a.msrs[m] = c.u64();
}

void
writeMemMap(std::vector<std::uint8_t> &b, const MemoryMap &mem)
{
    const std::vector<Addr> pages = mem.residentPages();
    putU64(b, pages.size());
    b.reserve(b.size() + pages.size() * (8 + 1 + MemoryMap::kPageBytes));
    for (const Addr base : pages) {
        putU64(b, base);
        putU8(b, mem.permAt(base) == MemPerm::kKernel ? 1 : 0);
        const std::size_t at = b.size();
        b.resize(at + MemoryMap::kPageBytes);
        mem.readBytes(base, b.data() + at, MemoryMap::kPageBytes);
    }
}

void
readMemMap(Cursor &c, MemoryMap &mem)
{
    const std::uint64_t n = c.count(8 + 1 + MemoryMap::kPageBytes);
    for (std::uint64_t i = 0; i < n && !c.failed; ++i) {
        const Addr base = c.u64();
        const bool kernel = c.u8() != 0;
        const std::uint8_t *page = c.span(MemoryMap::kPageBytes);
        if (c.failed)
            break;
        // writeBytes materializes the page even when all-zero, which
        // is exactly right: the resident-page set is part of the
        // MemoryMap equality contract.
        mem.writeBytes(base, page, MemoryMap::kPageBytes);
        if (kernel)
            mem.setPerm(base, MemoryMap::kPageBytes, MemPerm::kKernel);
    }
}

void
writeTaint(std::vector<std::uint8_t> &b, const ArchState &a)
{
    for (int r = 0; r < kNumArchRegs; ++r)
        putU64(b, a.regTaint[r]);
    for (int m = 0; m < kNumMsrRegs; ++m)
        putU64(b, a.msrTaint[m]);
    std::vector<std::pair<Addr, TaintWord>> sorted(a.memTaint.begin(),
                                                   a.memTaint.end());
    std::sort(sorted.begin(), sorted.end());
    putU64(b, sorted.size());
    for (const auto &[addr, word] : sorted) {
        putU64(b, addr);
        putU64(b, word);
    }
}

void
readTaint(Cursor &c, ArchState &a)
{
    a.hasTaint = true;
    for (int r = 0; r < kNumArchRegs; ++r)
        a.regTaint[r] = c.u64();
    for (int m = 0; m < kNumMsrRegs; ++m)
        a.msrTaint[m] = c.u64();
    const std::uint64_t n = c.count(16);
    for (std::uint64_t i = 0; i < n && !c.failed; ++i) {
        const Addr addr = c.u64();
        const TaintWord word = c.u64();
        if (!c.failed)
            a.memTaint[addr] = word;
    }
}

void
writeCacheParams(std::vector<std::uint8_t> &b, const CacheParams &p)
{
    putString(b, p.name);
    putU64(b, p.sizeBytes);
    putU32(b, p.ways);
    putU32(b, p.lineBytes);
    putU32(b, p.hitLatency);
}

void
readCacheParams(Cursor &c, CacheParams &p)
{
    p.name = c.str();
    p.sizeBytes = c.u64();
    p.ways = c.u32();
    p.lineBytes = c.u32();
    p.hitLatency = c.u32();
}

void
writeCacheSnap(std::vector<std::uint8_t> &b, const Cache::Snapshot &s)
{
    putU64(b, s.lines.size());
    for (const Cache::Line &line : s.lines) {
        putU64(b, line.tag);
        putU8(b, line.valid ? 1 : 0);
        putU64(b, line.lastUse);
    }
    putU64(b, s.useClock);
    putU64(b, s.hits);
    putU64(b, s.misses);
    putU64(b, s.fills);
}

void
readCacheSnap(Cursor &c, Cache::Snapshot &s)
{
    const std::uint64_t n = c.count(8 + 1 + 8);
    s.lines.resize(c.failed ? 0 : n);
    for (Cache::Line &line : s.lines) {
        line.tag = c.u64();
        line.valid = c.u8() != 0;
        line.lastUse = c.u64();
    }
    s.useClock = c.u64();
    s.hits = c.u64();
    s.misses = c.u64();
    s.fills = c.u64();
}

void
writeHier(std::vector<std::uint8_t> &b, const SimSnapshot &snap)
{
    writeCacheParams(b, snap.memParams.l1i);
    writeCacheParams(b, snap.memParams.l1d);
    writeCacheParams(b, snap.memParams.l2);
    putU32(b, snap.memParams.dramLatency);
    writeCacheSnap(b, snap.mem.l1i);
    writeCacheSnap(b, snap.mem.l1d);
    writeCacheSnap(b, snap.mem.l2);
}

void
readHier(Cursor &c, SimSnapshot &snap)
{
    snap.hasMem = true;
    readCacheParams(c, snap.memParams.l1i);
    readCacheParams(c, snap.memParams.l1d);
    readCacheParams(c, snap.memParams.l2);
    snap.memParams.dramLatency = c.u32();
    readCacheSnap(c, snap.mem.l1i);
    readCacheSnap(c, snap.mem.l1d);
    readCacheSnap(c, snap.mem.l2);
}

void
writePredictor(std::vector<std::uint8_t> &b, const SimSnapshot &snap)
{
    const PredictorParams &p = snap.bpParams;
    putU32(b, p.direction.tableBits);
    putU32(b, p.direction.historyBits);
    putU32(b, p.btb.entries);
    putU32(b, p.btb.ways);
    putU32(b, p.btb.tagBits);
    putU32(b, p.rasEntries);

    const DirectionPredictor::Snapshot &d = snap.predictor.direction;
    for (const std::vector<std::uint8_t> *table :
         {&d.gshare, &d.bimodal, &d.chooser}) {
        putU64(b, table->size());
        putBytes(b, table->data(), table->size());
    }
    putU64(b, d.history);
    putU64(b, d.predicts);
    putU64(b, d.gshareChosen);

    const Btb::Snapshot &t = snap.predictor.btb;
    putU64(b, t.entries.size());
    for (const Btb::Entry &e : t.entries) {
        putU64(b, e.tag);
        putU64(b, e.target);
        putU8(b, e.valid ? 1 : 0);
        putU64(b, e.lastUse);
    }
    putU64(b, t.useClock);
    putU64(b, t.hits);
    putU64(b, t.misses);
    putU64(b, t.updates);

    const Ras::Snapshot &r = snap.predictor.ras;
    putU64(b, r.stack.size());
    for (const Addr a : r.stack)
        putU64(b, a);
    putU32(b, r.topIdx);
    putU64(b, r.pushes);
    putU64(b, r.pops);
}

void
readPredictor(Cursor &c, SimSnapshot &snap)
{
    snap.hasPredictor = true;
    PredictorParams &p = snap.bpParams;
    p.direction.tableBits = c.u32();
    p.direction.historyBits = c.u32();
    p.btb.entries = c.u32();
    p.btb.ways = c.u32();
    p.btb.tagBits = c.u32();
    p.rasEntries = c.u32();

    DirectionPredictor::Snapshot &d = snap.predictor.direction;
    for (std::vector<std::uint8_t> *table :
         {&d.gshare, &d.bimodal, &d.chooser}) {
        const std::uint64_t n = c.count(1);
        table->resize(c.failed ? 0 : n);
        c.bytes(table->data(), table->size());
    }
    d.history = c.u64();
    d.predicts = c.u64();
    d.gshareChosen = c.u64();

    Btb::Snapshot &t = snap.predictor.btb;
    const std::uint64_t btb_n = c.count(8 + 8 + 1 + 8);
    t.entries.resize(c.failed ? 0 : btb_n);
    for (Btb::Entry &e : t.entries) {
        e.tag = c.u64();
        e.target = c.u64();
        e.valid = c.u8() != 0;
        e.lastUse = c.u64();
    }
    t.useClock = c.u64();
    t.hits = c.u64();
    t.misses = c.u64();
    t.updates = c.u64();

    Ras::Snapshot &r = snap.predictor.ras;
    const std::uint64_t ras_n = c.count(8);
    r.stack.resize(c.failed ? 0 : ras_n);
    for (Addr &a : r.stack)
        a = c.u64();
    r.topIdx = c.u32();
    r.pushes = c.u64();
    r.pops = c.u64();
}

void
writeThreads(std::vector<std::uint8_t> &b,
             const std::vector<ArchState> &threads)
{
    putU64(b, threads.size());
    for (const ArchState &t : threads) {
        writeArch(b, t);
        // Extra threads carry their own memory/taint maps only in
        // principle (memory is shared, so they are empty in practice);
        // serializing them keeps the round-trip contract exact.
        writeMemMap(b, t.mem);
        putU8(b, t.hasTaint ? 1 : 0);
        if (t.hasTaint)
            writeTaint(b, t);
    }
}

void
readThreads(Cursor &c, std::vector<ArchState> &threads)
{
    // A thread record is at least the fixed-size arch block plus the
    // page count and taint flag.
    const std::uint64_t n = c.count(
        (kNumArchRegs + 4 + kNumMsrRegs) * 8 + 1 + 8 + 1);
    for (std::uint64_t i = 0; i < n && !c.failed; ++i) {
        ArchState t{};
        readArch(c, t);
        readMemMap(c, t.mem);
        const bool has_taint = c.u8() != 0;
        if (has_taint)
            readTaint(c, t);
        t.hasTaint = has_taint;
        if (!c.failed)
            threads.push_back(std::move(t));
    }
}

void
appendSection(std::vector<std::uint8_t> &out, std::uint32_t id,
              const std::vector<std::uint8_t> &payload)
{
    putU32(out, id);
    putU64(out, payload.size());
    putU32(out, crc32(payload.data(), payload.size()));
    putBytes(out, payload.data(), payload.size());
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t len)
{
    // IEEE 802.3 reflected polynomial, slicing-by-8: kTable[0] is the
    // byte-at-a-time table, kTable[k][b] the CRC of byte b followed by
    // k zero bytes, so eight lookups fold in eight input bytes.
    static constexpr auto kTable = [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t b = 0; b < 256; ++b) {
            std::uint32_t crc = b;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ (crc & 1 ? 0xEDB88320u : 0u);
            t[0][b] = crc;
        }
        for (std::size_t k = 1; k < t.size(); ++k) {
            for (std::size_t b = 0; b < 256; ++b)
                t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
        }
        return t;
    }();
    const auto le32 = [](const std::uint8_t *p) {
        return static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24;
    };

    std::uint32_t crc = 0xFFFFFFFFu;
    for (; len >= 8; data += 8, len -= 8) {
        const std::uint32_t lo = crc ^ le32(data);
        const std::uint32_t hi = le32(data + 4);
        crc = kTable[7][lo & 0xFF] ^ kTable[6][(lo >> 8) & 0xFF] ^
              kTable[5][(lo >> 16) & 0xFF] ^ kTable[4][lo >> 24] ^
              kTable[3][hi & 0xFF] ^ kTable[2][(hi >> 8) & 0xFF] ^
              kTable[1][(hi >> 16) & 0xFF] ^ kTable[0][hi >> 24];
    }
    for (; len > 0; ++data, --len)
        crc = (crc >> 8) ^ kTable[0][(crc ^ *data) & 0xFF];
    return ~crc;
}

void
CkptWriter::put(const SimSnapshot &snap)
{
    buf_.clear();

    std::uint32_t sections = 2; // ARCH + MEMMAP, always present
    if (snap.arch.hasTaint)
        ++sections;
    if (snap.hasMem)
        ++sections;
    if (snap.hasPredictor)
        ++sections;
    // SMT contexts force schema v2; without them the output is
    // byte-identical to a v1 file (backward-compatible corpus).
    const bool smt = !snap.extraThreads.empty();
    if (smt)
        ++sections;

    putU64(buf_, kMagic);
    putU32(buf_, smt ? kSchemaVersionSmt : kSchemaVersion);
    putU32(buf_, sections);

    std::vector<std::uint8_t> payload;
    writeArch(payload, snap.arch);
    appendSection(buf_, kArchSection, payload);

    payload.clear();
    writeMemMap(payload, snap.arch.mem);
    appendSection(buf_, kMemMapSection, payload);

    if (snap.arch.hasTaint) {
        payload.clear();
        writeTaint(payload, snap.arch);
        appendSection(buf_, kTaintSection, payload);
    }
    if (snap.hasMem) {
        payload.clear();
        writeHier(payload, snap);
        appendSection(buf_, kHierSection, payload);
    }
    if (snap.hasPredictor) {
        payload.clear();
        writePredictor(payload, snap);
        appendSection(buf_, kPredictorSection, payload);
    }
    if (smt) {
        payload.clear();
        writeThreads(payload, snap.extraThreads);
        appendSection(buf_, kThreadsSection, payload);
    }
}

bool
CkptWriter::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        NDA_WARN("ckpt: cannot open '%s' for writing", path.c_str());
        return false;
    }
    const std::size_t n = std::fwrite(buf_.data(), 1, buf_.size(), f);
    const int closed = std::fclose(f);
    if (n != buf_.size() || closed != 0) {
        NDA_WARN("ckpt: short write to '%s'", path.c_str());
        std::remove(path.c_str());
        return false;
    }
    return true;
}

bool
CkptReader::parse(const std::uint8_t *data, std::size_t len,
                  SimSnapshot &out)
{
    error_.clear();
    out = SimSnapshot{};

    Cursor header{data, len};
    if (header.u64() != kMagic) {
        error_ = header.failed ? header.error : "bad magic";
        return false;
    }
    const std::uint32_t version = header.u32();
    if (!header.failed && version != kSchemaVersion &&
        version != kSchemaVersionSmt) {
        error_ = "unsupported schema version " + std::to_string(version);
        return false;
    }
    const std::uint32_t sections = header.u32();
    if (header.failed) {
        error_ = header.error;
        return false;
    }

    bool saw_arch = false;
    for (std::uint32_t s = 0; s < sections; ++s) {
        const std::uint32_t id = header.u32();
        const std::uint64_t plen = header.u64();
        const std::uint32_t want_crc = header.u32();
        if (header.failed || len - header.pos < plen) {
            error_ = "truncated section " + std::to_string(id);
            return false;
        }
        const std::uint8_t *payload = data + header.pos;
        header.pos += plen;
        if (crc32(payload, plen) != want_crc) {
            error_ = "CRC mismatch in section " + std::to_string(id);
            return false;
        }

        Cursor c{payload, static_cast<std::size_t>(plen)};
        switch (id) {
          case kArchSection:
            readArch(c, out.arch);
            saw_arch = true;
            break;
          case kMemMapSection:
            readMemMap(c, out.arch.mem);
            break;
          case kTaintSection:
            readTaint(c, out.arch);
            break;
          case kHierSection:
            readHier(c, out);
            break;
          case kPredictorSection:
            readPredictor(c, out);
            break;
          case kThreadsSection:
            if (version < kSchemaVersionSmt) {
                error_ = "THREADS section in a v1 file";
                return false;
            }
            readThreads(c, out.extraThreads);
            break;
          default:
            error_ = "unknown section id " + std::to_string(id);
            return false;
        }
        if (c.failed) {
            error_ = "section " + std::to_string(id) + ": " + c.error;
            return false;
        }
        if (c.pos != c.len) {
            error_ = "section " + std::to_string(id) +
                     ": trailing bytes";
            return false;
        }
    }
    if (header.pos != len) {
        error_ = "trailing bytes after last section";
        return false;
    }
    if (!saw_arch) {
        error_ = "missing ARCH section";
        return false;
    }
    return true;
}

bool
CkptReader::readFile(const std::string &path, SimSnapshot &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error_ = "cannot open '" + path + "'";
        return false;
    }
    // One buffer, sized once from the file length.
    std::vector<std::uint8_t> bytes;
    bool read_err = std::fseek(f, 0, SEEK_END) != 0;
    const long size = read_err ? -1 : std::ftell(f);
    read_err = read_err || size < 0 || std::fseek(f, 0, SEEK_SET) != 0;
    if (!read_err) {
        bytes.resize(static_cast<std::size_t>(size));
        read_err = std::fread(bytes.data(), 1, bytes.size(), f) !=
                   bytes.size();
    }
    std::fclose(f);
    if (read_err) {
        error_ = "read error on '" + path + "'";
        return false;
    }
    return parse(bytes.data(), bytes.size(), out);
}

} // namespace nda
