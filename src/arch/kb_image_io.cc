#include "arch/kb_image_io.hh"

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace snap
{

namespace
{

constexpr char kMagic[8] = {'S', 'N', 'A', 'P', 'K', 'B', 'I', 'M'};
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 4 + 4;
constexpr std::size_t kTableEntryBytes = 4 + 4 + 8 + 8 + 8;
/** One relation slot in the cluster section: rel, dst cluster, dst
 *  local, dst global, weight. */
constexpr std::size_t kSlotEntryBytes = 2 + 2 + 4 + 4 + 4;

/** Section ids (order in the file follows this numbering). */
enum SectionId : std::uint32_t
{
    SectMeta = 1,
    SectSymbols = 2,
    SectNodeNames = 3,
    SectNodeColors = 4,
    SectLinks = 5,
    SectPartition = 6,
    SectClusters = 7,
};
constexpr std::uint32_t kNumSections = 7;

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t n,
        std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Little-endian append-only byte buffer. */
class Buf
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void
    u16(std::uint16_t v)
    {
        bytes_.push_back(static_cast<std::uint8_t>(v));
        bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
    }
    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void
    f32(float v)
    {
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u32(bits);
    }
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    const std::uint8_t *data() const { return bytes_.data(); }
    std::size_t size() const { return bytes_.size(); }
    void reserve(std::size_t n) { bytes_.reserve(n); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian cursor over an untrusted buffer. */
class Cursor
{
  public:
    Cursor(const std::uint8_t *data, std::size_t n)
        : data_(data), end_(n)
    {}

    bool
    u8(std::uint8_t &v)
    {
        if (pos_ + 1 > end_)
            return false;
        v = data_[pos_++];
        return true;
    }
    bool
    u16(std::uint16_t &v)
    {
        if (pos_ + 2 > end_)
            return false;
        v = static_cast<std::uint16_t>(
            data_[pos_] | (data_[pos_ + 1] << 8));
        pos_ += 2;
        return true;
    }
    bool
    u32(std::uint32_t &v)
    {
        if (pos_ + 4 > end_)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return true;
    }
    bool
    u64(std::uint64_t &v)
    {
        if (pos_ + 8 > end_)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return true;
    }
    bool
    f32(float &v)
    {
        std::uint32_t bits;
        if (!u32(bits))
            return false;
        std::memcpy(&v, &bits, sizeof(v));
        return true;
    }
    bool
    str(std::string &s, std::uint32_t max_len = 1u << 20)
    {
        std::uint32_t n;
        if (!u32(n) || n > max_len || pos_ + n > end_)
            return false;
        s.assign(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return true;
    }

    bool done() const { return pos_ == end_; }
    std::size_t remaining() const { return end_ - pos_; }

  private:
    const std::uint8_t *data_;
    std::size_t pos_ = 0;
    std::size_t end_;
};

std::uint32_t
strategyCode(PartitionStrategy s)
{
    switch (s) {
      case PartitionStrategy::Sequential: return 0;
      case PartitionStrategy::RoundRobin: return 1;
      case PartitionStrategy::Semantic: return 2;
    }
    return 2;
}

bool
strategyFromCode(std::uint32_t code, PartitionStrategy &out)
{
    switch (code) {
      case 0: out = PartitionStrategy::Sequential; return true;
      case 1: out = PartitionStrategy::RoundRobin; return true;
      case 2: out = PartitionStrategy::Semantic; return true;
    }
    return false;
}

} // namespace

const char *
kbImgStatusName(KbImgStatus s)
{
    switch (s) {
      case KbImgStatus::Ok: return "ok";
      case KbImgStatus::IoError: return "io-error";
      case KbImgStatus::BadMagic: return "bad-magic";
      case KbImgStatus::BadVersion: return "bad-version";
      case KbImgStatus::BadEndian: return "bad-endian";
      case KbImgStatus::Truncated: return "truncated";
      case KbImgStatus::ChecksumMismatch: return "checksum-mismatch";
      case KbImgStatus::BadSection: return "bad-section";
    }
    return "?";
}

bool
saveKbImage(const SemanticNetwork &net, const KbImage &image,
            PartitionStrategy strategy, std::ostream &os)
{
    const std::uint32_t num_nodes = net.numNodes();
    const std::uint32_t num_clusters = image.numClusters();
    snap_assert(image.numNodes() == num_nodes,
                "image over %u nodes but network has %u",
                image.numNodes(), num_nodes);

    Buf sections[kNumSections];

    // --- 1: meta --------------------------------------------------------
    {
        Buf &b = sections[SectMeta - 1];
        b.u32(num_nodes);
        b.u32(num_clusters);
        b.u64(net.numLinks());
        b.u32(strategyCode(strategy));
        b.u32(net.relations().size());
        b.u32(net.colorNames().size());
        b.u32(0);
    }

    // --- 2: symbol tables (relations, colors) ---------------------------
    {
        Buf &b = sections[SectSymbols - 1];
        b.u32(net.relations().size());
        for (std::uint32_t r = 0; r < net.relations().size(); ++r)
            b.str(net.relations().name(
                static_cast<RelationType>(r)));
        b.u32(net.colorNames().size());
        for (std::uint32_t c = 0; c < net.colorNames().size(); ++c)
            b.str(net.colorNames().name(static_cast<Color>(c)));
    }

    // --- 3: node names --------------------------------------------------
    {
        Buf &b = sections[SectNodeNames - 1];
        b.u32(num_nodes);
        for (NodeId n = 0; n < num_nodes; ++n)
            b.str(net.nodeName(n));
    }

    // --- 4: node colors -------------------------------------------------
    {
        Buf &b = sections[SectNodeColors - 1];
        b.reserve(num_nodes);
        for (NodeId n = 0; n < num_nodes; ++n)
            b.u8(net.color(n));
    }

    // --- 5: logical links (CSR) -----------------------------------------
    {
        Buf &b = sections[SectLinks - 1];
        b.reserve(8 * (num_nodes + 1) + 12 * net.numLinks());
        std::uint64_t off = 0;
        for (NodeId n = 0; n < num_nodes; ++n) {
            b.u64(off);
            off += net.fanout(n);
        }
        b.u64(off);
        for (NodeId n = 0; n < num_nodes; ++n) {
            for (const Link &l : net.links(n)) {
                b.u16(l.rel);
                b.u16(0);
                b.u32(l.dst);
                b.f32(l.weight);
            }
        }
    }

    // --- 6: partition placements ----------------------------------------
    {
        Buf &b = sections[SectPartition - 1];
        b.reserve(8 * num_nodes);
        for (NodeId n = 0; n < num_nodes; ++n) {
            Placement p = image.place(n);
            b.u16(static_cast<std::uint16_t>(p.cluster));
            b.u16(0);
            b.u32(p.local);
        }
    }

    // --- 7: compiled per-cluster relation tables ------------------------
    {
        Buf &b = sections[SectClusters - 1];
        for (ClusterId c = 0; c < num_clusters; ++c) {
            const ClusterKb &ckb = image.cluster(c);
            const std::uint32_t locals = ckb.numLocalNodes();
            b.u32(locals);
            std::uint64_t total = 0;
            for (LocalNodeId l = 0; l < locals; ++l)
                total += ckb.slots(l).size();
            b.u64(total);
            for (LocalNodeId l = 0; l < locals; ++l)
                b.u32(static_cast<std::uint32_t>(
                    ckb.slots(l).size()));
            for (LocalNodeId l = 0; l < locals; ++l) {
                for (const RelSlot &s : ckb.slots(l)) {
                    b.u16(s.rel);
                    b.u16(static_cast<std::uint16_t>(s.destCluster));
                    b.u32(s.destLocal);
                    b.u32(s.destGlobal);
                    b.f32(s.weight);
                }
            }
        }
    }

    // --- header + section table + payloads ------------------------------
    Buf head;
    for (char ch : kMagic)
        head.u8(static_cast<std::uint8_t>(ch));
    head.u32(kbImgVersion);
    head.u32(kEndianTag);
    head.u32(kNumSections);
    head.u32(0);

    std::uint64_t offset =
        kHeaderBytes + kNumSections * kTableEntryBytes;
    for (std::uint32_t i = 0; i < kNumSections; ++i) {
        head.u32(i + 1);
        head.u32(0);
        head.u64(offset);
        head.u64(sections[i].size());
        head.u64(fnv1a64(sections[i].data(), sections[i].size()));
        offset += sections[i].size();
    }

    os.write(reinterpret_cast<const char *>(head.data()),
             static_cast<std::streamsize>(head.size()));
    for (const Buf &b : sections) {
        os.write(reinterpret_cast<const char *>(b.data()),
                 static_cast<std::streamsize>(b.size()));
    }
    os.flush();
    return static_cast<bool>(os);
}

void
saveKbImageFile(const SemanticNetwork &net, const KbImage &image,
                PartitionStrategy strategy, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        snap_fatal("cannot open '%s' for writing", path.c_str());
    if (!saveKbImage(net, image, strategy, os))
        snap_fatal("write error on '%s'", path.c_str());
}

namespace
{

struct Section
{
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint64_t checksum = 0;
    bool present = false;
};

} // namespace

KbImgStatus
loadKbImageFile(const std::string &path, KbImageFile &out,
                std::string &detail)
{
    // Bulk read: the whole file in one gulp; every parse below walks
    // in-memory bytes.
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        detail = "cannot open '" + path + "'";
        return KbImgStatus::IoError;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    if (is.bad()) {
        detail = "read error on '" + path + "'";
        return KbImgStatus::IoError;
    }

    if (bytes.size() < kHeaderBytes ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        detail = "'" + path + "' is not a .kbimg file";
        return KbImgStatus::BadMagic;
    }
    Cursor head(bytes.data() + sizeof(kMagic),
                kHeaderBytes - sizeof(kMagic));
    std::uint32_t version, endian, nsect, reserved;
    head.u32(version);
    head.u32(endian);
    head.u32(nsect);
    head.u32(reserved);
    if (version != kbImgVersion) {
        detail = formatString("format version %u (this build reads "
                              "version %u)", version, kbImgVersion);
        return KbImgStatus::BadVersion;
    }
    if (endian != kEndianTag) {
        detail = formatString("endian tag 0x%08x (expected "
                              "0x%08x): written on a foreign-endian "
                              "machine", endian, kEndianTag);
        return KbImgStatus::BadEndian;
    }
    if (nsect < kNumSections) {
        detail = formatString("%u sections (need %u)", nsect,
                              kNumSections);
        return KbImgStatus::BadSection;
    }

    const std::size_t table_end =
        kHeaderBytes + static_cast<std::size_t>(nsect) *
                           kTableEntryBytes;
    if (bytes.size() < table_end) {
        detail = "file ends inside the section table";
        return KbImgStatus::Truncated;
    }

    Section sect[kNumSections];
    std::uint64_t fingerprint = 0xcbf29ce484222325ull;
    Cursor table(bytes.data() + kHeaderBytes,
                 table_end - kHeaderBytes);
    for (std::uint32_t i = 0; i < nsect; ++i) {
        std::uint32_t id = 0, rsvd = 0;
        std::uint64_t off = 0, size = 0, sum = 0;
        table.u32(id);
        table.u32(rsvd);
        table.u64(off);
        table.u64(size);
        table.u64(sum);
        if (off > bytes.size() || size > bytes.size() - off) {
            detail = formatString("section %u [%llu, +%llu) runs "
                                  "past the %zu-byte file", id,
                                  static_cast<unsigned long long>(off),
                                  static_cast<unsigned long long>(size),
                                  bytes.size());
            return KbImgStatus::Truncated;
        }
        if (fnv1a64(bytes.data() + off, size) != sum) {
            detail = formatString("section %u checksum mismatch", id);
            return KbImgStatus::ChecksumMismatch;
        }
        // Unknown section ids are skipped (forward-compatible
        // extension point); known ids must appear exactly once.
        if (id >= 1 && id <= kNumSections) {
            if (sect[id - 1].present) {
                detail = formatString("duplicate section %u", id);
                return KbImgStatus::BadSection;
            }
            sect[id - 1] = Section{off, size, sum, true};
        }
        fingerprint = fnv1a64(
            reinterpret_cast<const std::uint8_t *>(&sum),
            sizeof(sum), fingerprint);
    }
    for (std::uint32_t i = 0; i < kNumSections; ++i) {
        if (!sect[i].present) {
            detail = formatString("missing section %u", i + 1);
            return KbImgStatus::BadSection;
        }
    }

    auto cursorOf = [&](std::uint32_t id) {
        return Cursor(bytes.data() + sect[id - 1].offset,
                      sect[id - 1].size);
    };
    auto bad = [&](const char *what) {
        detail = formatString("malformed %s section", what);
        return KbImgStatus::BadSection;
    };

    // --- meta -----------------------------------------------------------
    Cursor meta = cursorOf(SectMeta);
    std::uint32_t num_nodes, num_clusters, strat_code, num_rels,
        num_colors, rsvd;
    std::uint64_t num_links;
    PartitionStrategy strategy;
    if (!meta.u32(num_nodes) || !meta.u32(num_clusters) ||
        !meta.u64(num_links) || !meta.u32(strat_code) ||
        !meta.u32(num_rels) || !meta.u32(num_colors) ||
        !meta.u32(rsvd) || !strategyFromCode(strat_code, strategy) ||
        num_clusters < 1 || num_clusters > capacity::maxClusters ||
        num_nodes > capacity::maxNodes)
        return bad("meta");

    KbImageFile result;
    result.strategy = strategy;
    result.fingerprint = fingerprint;

    // --- symbols --------------------------------------------------------
    {
        Cursor c = cursorOf(SectSymbols);
        std::uint32_t n;
        std::string name;
        if (!c.u32(n) || n != num_rels)
            return bad("symbol");
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!c.str(name))
                return bad("symbol");
            if (result.net.relations().intern(name) !=
                static_cast<RelationType>(i))
                return bad("symbol");
        }
        if (!c.u32(n) || n != num_colors)
            return bad("symbol");
        for (std::uint32_t i = 0; i < n; ++i) {
            // Color 0 ("concept") is pre-interned by the network
            // constructor; re-interning the stored table in order
            // reproduces the saved ids exactly.
            if (!c.str(name))
                return bad("symbol");
            if (result.net.colorNames().intern(name) !=
                static_cast<Color>(i))
                return bad("symbol");
        }
    }

    // --- node names + colors --------------------------------------------
    {
        Cursor names = cursorOf(SectNodeNames);
        Cursor colors = cursorOf(SectNodeColors);
        std::uint32_t n;
        if (!names.u32(n) || n != num_nodes)
            return bad("node-name");
        std::string name;
        std::uint8_t color;
        for (NodeId i = 0; i < num_nodes; ++i) {
            if (!names.str(name) || !colors.u8(color))
                return bad("node");
            if (color >= num_colors)
                return bad("node");
            if (result.net.addNode(name, color) != i)
                return bad("node");
        }
    }

    // --- links ----------------------------------------------------------
    {
        Cursor c = cursorOf(SectLinks);
        std::vector<std::uint64_t> offsets(num_nodes + 1);
        for (auto &o : offsets) {
            if (!c.u64(o))
                return bad("link");
        }
        if (offsets[0] != 0 || offsets[num_nodes] != num_links)
            return bad("link");
        for (NodeId n = 0; n < num_nodes; ++n) {
            if (offsets[n] > offsets[n + 1])
                return bad("link");
            std::uint64_t fan = offsets[n + 1] - offsets[n];
            for (std::uint64_t k = 0; k < fan; ++k) {
                std::uint16_t rel, pad;
                std::uint32_t dst;
                float w;
                if (!c.u16(rel) || !c.u16(pad) || !c.u32(dst) ||
                    !c.f32(w) || rel >= num_rels || dst >= num_nodes)
                    return bad("link");
                result.net.addLink(n, rel, dst, w);
            }
        }
    }

    // --- partition ------------------------------------------------------
    std::vector<Placement> placements(num_nodes);
    std::vector<std::uint32_t> cluster_sizes(num_clusters, 0);
    {
        Cursor c = cursorOf(SectPartition);
        for (NodeId n = 0; n < num_nodes; ++n) {
            std::uint16_t cluster, pad;
            std::uint32_t local;
            if (!c.u16(cluster) || !c.u16(pad) || !c.u32(local) ||
                cluster >= num_clusters)
                return bad("partition");
            placements[n] = Placement{cluster, local};
            cluster_sizes[cluster] =
                std::max(cluster_sizes[cluster], local + 1);
        }
        // Density check up front: fromPlacements() asserts (fatal) on
        // holes/duplicates, so a corrupt table must be rejected here.
        std::vector<char> seen;
        std::uint64_t total = 0;
        for (std::uint32_t s : cluster_sizes)
            total += s;
        if (total != num_nodes)
            return bad("partition");
        for (ClusterId cl = 0; cl < num_clusters; ++cl) {
            seen.assign(cluster_sizes[cl], 0);
            for (NodeId n = 0; n < num_nodes; ++n) {
                if (placements[n].cluster == cl) {
                    if (seen[placements[n].local])
                        return bad("partition");
                    seen[placements[n].local] = 1;
                }
            }
        }
    }

    // --- compiled cluster tables ----------------------------------------
    std::vector<std::unique_ptr<ClusterKb>> clusters;
    clusters.reserve(num_clusters);
    {
        Cursor c = cursorOf(SectClusters);
        for (ClusterId cl = 0; cl < num_clusters; ++cl) {
            std::uint32_t locals;
            std::uint64_t total;
            if (!c.u32(locals) || locals != cluster_sizes[cl] ||
                !c.u64(total))
                return bad("cluster");
            std::vector<std::uint32_t> counts(locals);
            std::uint64_t sum = 0;
            for (auto &n : counts) {
                if (!c.u32(n))
                    return bad("cluster");
                sum += n;
            }
            // Bound the counts by what the section still holds before
            // any of them sizes an allocation: every count is <= the
            // total, and each slot entry is 16 bytes.
            if (sum != total || total > c.remaining() / kSlotEntryBytes)
                return bad("cluster");
            std::vector<std::vector<RelSlot>> slots(locals);
            for (LocalNodeId l = 0; l < locals; ++l) {
                slots[l].reserve(counts[l]);
                for (std::uint32_t k = 0; k < counts[l]; ++k) {
                    std::uint16_t rel, dcluster;
                    std::uint32_t dlocal, dglobal;
                    float w;
                    if (!c.u16(rel) || !c.u16(dcluster) ||
                        !c.u32(dlocal) || !c.u32(dglobal) ||
                        !c.f32(w) || rel >= num_rels ||
                        dcluster >= num_clusters ||
                        (dglobal != invalidNode &&
                         dglobal >= num_nodes))
                        return bad("cluster");
                    slots[l].push_back(RelSlot{
                        rel, dcluster, dlocal, dglobal, w});
                }
            }
            // Rebuild this cluster's identity tables from the
            // validated partition + network (bit-identical to what
            // the compiler would emit, without re-deriving slots).
            std::vector<NodeId> globals;
            std::vector<Color> colors;
            globals.reserve(locals);
            colors.reserve(locals);
            for (LocalNodeId l = 0; l < locals; ++l)
                globals.push_back(invalidNode);
            for (NodeId n = 0; n < num_nodes; ++n) {
                if (placements[n].cluster == cl)
                    globals[placements[n].local] = n;
            }
            for (LocalNodeId l = 0; l < locals; ++l)
                colors.push_back(result.net.color(globals[l]));
            clusters.push_back(std::make_unique<ClusterKb>(
                cl, std::move(globals), std::move(colors),
                std::move(slots)));
        }
        if (!c.done())
            return bad("cluster");
    }

    result.image = std::make_unique<KbImage>(
        Partition::fromPlacements(num_clusters,
                                  std::move(placements)),
        std::move(clusters));

    out = std::move(result);
    detail.clear();
    return KbImgStatus::Ok;
}

bool
isKbImageFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    char magic[8] = {};
    is.read(magic, sizeof(magic));
    return is.gcount() == sizeof(magic) &&
           std::memcmp(magic, kMagic, sizeof(magic)) == 0;
}

} // namespace snap
