#include "isa/program.hh"

#include <cstring>
#include <sstream>

namespace snap
{

namespace
{

inline std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 0x100000001b3ull;
}

inline std::uint64_t
floatBits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** The words of one instruction that contentHash digests and
 *  operator== compares, in digest order. */
std::array<std::uint64_t, 15>
contentWords(const Instruction &i)
{
    return {static_cast<std::uint64_t>(i.op),
            i.node,
            i.endNode,
            i.rel,
            i.rel2,
            i.color,
            i.m1,
            i.m2,
            i.m3,
            floatBits(i.value),
            i.rule,
            static_cast<std::uint64_t>(i.func),
            static_cast<std::uint64_t>(i.comb),
            static_cast<std::uint64_t>(i.sfunc.op),
            floatBits(i.sfunc.imm)};
}

} // namespace

std::uint64_t
Program::contentHash() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Instruction &i : instrs_) {
        for (std::uint64_t w : contentWords(i))
            h = fnv1a(h, w);
    }
    for (std::uint32_t r = 0; r < rules_.size(); ++r) {
        const PropRule &rule = rules_.rule(static_cast<RuleId>(r));
        h = fnv1a(h, rule.maxSteps);
        h = fnv1a(h, rule.segments.size());
        for (const RuleSegment &seg : rule.segments) {
            h = fnv1a(h, seg.star ? 1u : 0u);
            h = fnv1a(h, seg.rels.size());
            for (RelationType rel : seg.rels)
                h = fnv1a(h, rel);
        }
    }
    return h;
}

bool
Program::operator==(const Program &other) const
{
    if (instrs_.size() != other.instrs_.size() ||
        rules_.size() != other.rules_.size())
        return false;
    for (std::size_t k = 0; k < instrs_.size(); ++k) {
        if (contentWords(instrs_[k]) != contentWords(other.instrs_[k]))
            return false;
    }
    for (std::uint32_t r = 0; r < rules_.size(); ++r) {
        const PropRule &a = rules_.rule(static_cast<RuleId>(r));
        const PropRule &b = other.rules_.rule(static_cast<RuleId>(r));
        if (a.maxSteps != b.maxSteps ||
            a.segments.size() != b.segments.size())
            return false;
        for (std::size_t s = 0; s < a.segments.size(); ++s) {
            if (a.segments[s].star != b.segments[s].star ||
                a.segments[s].rels != b.segments[s].rels)
                return false;
        }
    }
    return true;
}

std::array<std::uint64_t,
           static_cast<std::size_t>(InstrCategory::NumCategories)>
Program::categoryCounts() const
{
    std::array<std::uint64_t,
               static_cast<std::size_t>(
                   InstrCategory::NumCategories)> counts{};
    for (const auto &i : instrs_)
        ++counts[static_cast<std::size_t>(i.category())];
    return counts;
}

std::uint64_t
Program::countOpcode(Opcode op) const
{
    std::uint64_t n = 0;
    for (const auto &i : instrs_)
        if (i.op == op)
            ++n;
    return n;
}

std::string
Program::toString() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < instrs_.size(); ++i)
        os << i << ": " << instrs_[i].toString() << "\n";
    return os.str();
}

} // namespace snap
