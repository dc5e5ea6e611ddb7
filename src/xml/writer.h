#ifndef PXML_XML_WRITER_H_
#define PXML_XML_WRITER_H_

#include <string>

#include "core/probabilistic_instance.h"
#include "util/status.h"

namespace pxml {

/// Serializes a probabilistic instance to the textual PXML format:
///
///   <pxml root="R">
///    <types>
///     <type name="title-type"><val k="s">VQDB</val>...</type>
///    </types>
///    <object id="R">
///     <lch label="book" min="2" max="3">B1 B2 B3</lch>
///     <opf rep="explicit"><row p="0.2">B1 B2</row>...</opf>
///    </object>
///    <object id="T1" type="title-type">
///     <witness k="s">VQDB</witness>
///     <vpf><val k="s" p="0.6">VQDB</val>...</vpf>
///    </object>
///   </pxml>
///
/// Values carry a kind attribute (s/i/d/b); object names must not contain
/// whitespace (they separate child lists). Probabilities round-trip at
/// full precision (%.17g). Compact OPFs serialize in their native
/// representation (rep="independent" with <child p="...">, rep="per-label"
/// with nested <factor label="...">).
std::string SerializePxml(const ProbabilisticInstance& instance);

/// SerializePxml to a file.
Status WritePxmlFile(const ProbabilisticInstance& instance,
                     const std::string& path);

}  // namespace pxml

#endif  // PXML_XML_WRITER_H_
