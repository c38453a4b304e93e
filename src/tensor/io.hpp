// FROSTT .tns text format I/O.
//
// The paper's datasets come from FROSTT [Smith et al. 2017]; the .tns format
// is one nonzero per line: N whitespace-separated 1-based indices followed
// by the value. Lines starting with '#' are comments. Dimensions are the
// max index per mode unless provided explicitly.
#pragma once

#include <iosfwd>
#include <string>

#include "tensor/coo_tensor.hpp"

namespace cstf::tensor {

/// Parse a .tns stream. `expectedOrder` = 0 infers order from the first
/// data line. Throws cstf::Error on malformed input, naming the line; a
/// value that is not finite (nan, inf, an overflow) is malformed.
CooTensor readTns(std::istream& in, ModeId expectedOrder = 0);

/// Load from a file path (throws cstf::Error if the file cannot be opened).
CooTensor readTnsFile(const std::string& path, ModeId expectedOrder = 0);

/// Write in .tns format (1-based indices).
void writeTns(std::ostream& out, const CooTensor& t);
void writeTnsFile(const std::string& path, const CooTensor& t);

/// Binary format (".bns", common/binio.hpp framing): magic "CSTFBIN1", u8
/// order, u32 dims[order], u64 nnz, and packed (u32 indices..., f64 value)
/// records. Loads an order of magnitude faster than text for large tensors
/// and round-trips values exactly; the reader refuses any index outside
/// its mode and any value that is not finite, like readTns does.
void writeBinary(std::ostream& out, const CooTensor& t);
void writeBinaryFile(const std::string& path, const CooTensor& t);
CooTensor readBinary(std::istream& in);
CooTensor readBinaryFile(const std::string& path);

/// Dispatch on extension: ".bns" binary, anything else FROSTT text.
CooTensor readTensorFile(const std::string& path);
void writeTensorFile(const std::string& path, const CooTensor& t);

}  // namespace cstf::tensor
