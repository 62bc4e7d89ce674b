/**
 * @file
 * The nlu layer probe of the traced run: MemoryBasedParser turning
 * seeded newswire sentences into programs on the paper-scale
 * MUC-4-style linguistic KB.
 */

#include <vector>

#include "bench.hh"
#include "nlu/corpus.hh"
#include "nlu/kb_factory.hh"
#include "nlu/mb_parser.hh"

namespace snap
{
namespace perfbench
{

namespace
{

constexpr std::uint32_t kNonlexical = 12000;
constexpr std::uint32_t kVocabulary = 2000;
constexpr std::uint32_t kSentences = 1024;

} // namespace

double
nluBuildProgramUs(std::uint64_t seed)
{
    LinguisticKbParams params;
    params.nonlexicalNodes = kNonlexical;
    params.vocabulary = kVocabulary;
    LinguisticKb kb(params);
    const MemoryBasedParser parser(kb);
    std::vector<double> us;
    for (const Sentence &s :
         makeNewswireBatch(kb.lexicon(), kSentences, mix64(seed ^ 0x41c))) {
        const std::uint64_t t0 = nowNs();
        parser.buildProgram(s.words);
        us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
    }
    return quantile(us, 0.5);
}

} // namespace perfbench
} // namespace snap
