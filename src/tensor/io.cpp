#include "tensor/io.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>

#include "common/parse.hpp"
#include "common/strings.hpp"

namespace cstf::tensor {

namespace {

constexpr char kDimsHeader[] = "# dims:";

/// A 1-based .tns index or a header dim: a whole decimal token in
/// [minValue, max Index]; anything else (junk, sign, overflow) throws.
std::uint64_t parseTnsIndex(const std::string& field, std::size_t lineNo,
                            std::uint64_t minValue) {
  const std::optional<std::uint64_t> v = parseUint64(field);
  if (!v || *v < minValue) {
    throw Error(strprintf("line %zu: bad index '%s' (must be >= %llu)",
                          lineNo, field.c_str(),
                          static_cast<unsigned long long>(minValue)));
  }
  if (*v > std::numeric_limits<Index>::max()) {
    throw Error(strprintf("line %zu: index '%s' exceeds the %u-bit index "
                          "range",
                          lineNo, field.c_str(),
                          unsigned(8 * sizeof(Index))));
  }
  return *v;
}

}  // namespace

CooTensor readTns(std::istream& in, ModeId expectedOrder) {
  std::vector<Nonzero> nzs;
  std::vector<Index> dims;
  // Set by a "# dims: d1 d2 ..." header: dims are then fixed, not inferred.
  bool dimsDeclared = false;
  ModeId order = expectedOrder;
  std::string line;
  std::size_t lineNo = 0;

  while (std::getline(in, line)) {
    ++lineNo;
    if (line.rfind(kDimsHeader, 0) == 0) {
      CSTF_CHECK(!dimsDeclared && nzs.empty(),
                 strprintf("line %zu: a dims header must come once, before "
                           "the first nonzero",
                           lineNo));
      const std::vector<std::string> fields =
          splitFields(line.substr(sizeof(kDimsHeader) - 1), " \t\r");
      CSTF_CHECK(!fields.empty() && fields.size() <= kMaxOrder &&
                     (order == 0 || fields.size() == order),
                 strprintf("line %zu: dims header has %zu modes, expected "
                           "%d",
                           lineNo, fields.size(), int(order)));
      order = static_cast<ModeId>(fields.size());
      dims.clear();
      for (const std::string& f : fields) {
        dims.push_back(static_cast<Index>(parseTnsIndex(f, lineNo, 0)));
      }
      dimsDeclared = true;
      continue;
    }
    // Strip comments and blank lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> fields = splitFields(line, " \t\r");
    if (fields.empty()) continue;

    if (order == 0) {
      CSTF_CHECK(fields.size() >= 2 && fields.size() - 1 <= kMaxOrder,
                 strprintf("line %zu: cannot infer tensor order", lineNo));
      order = static_cast<ModeId>(fields.size() - 1);
      dims.assign(order, 0);
    }
    if (fields.size() != static_cast<std::size_t>(order) + 1) {
      throw Error(strprintf("line %zu: expected %d indices + value, got %zu",
                            lineNo, int(order), fields.size()));
    }
    if (dims.empty()) dims.assign(order, 0);

    Nonzero nz;
    nz.order = order;
    for (ModeId m = 0; m < order; ++m) {
      // .tns is 1-based.
      nz.idx[m] = static_cast<Index>(parseTnsIndex(fields[m], lineNo, 1) - 1);
      if (dimsDeclared) {
        CSTF_CHECK(nz.idx[m] < dims[m],
                   strprintf("line %zu: index '%s' exceeds the declared "
                             "mode-%d dim %u",
                             lineNo, fields[m].c_str(), int(m) + 1,
                             unsigned(dims[m])));
      } else {
        dims[m] = std::max(dims[m], nz.idx[m] + 1);
      }
    }
    char* end = nullptr;
    nz.val = std::strtod(fields[order].c_str(), &end);
    if (end == fields[order].c_str() || *end != '\0') {
      throw Error(strprintf("line %zu: bad value '%s'", lineNo,
                            fields[order].c_str()));
    }
    nzs.push_back(nz);
  }

  CSTF_CHECK(order != 0, "empty .tns input");
  return CooTensor(std::move(dims), std::move(nzs));
}

CooTensor readTnsFile(const std::string& path, ModeId expectedOrder) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open tensor file: " + path);
  try {
    CooTensor t = readTns(in, expectedOrder);
    t.setName(path);
    return t;
  } catch (const Error& e) {
    // Parse errors carry only line context; add which file it was.
    throw Error(path + ": " + e.what());
  }
}

void writeTns(std::ostream& out, const CooTensor& t) {
  // Declared dims survive the round trip even when trailing slices are
  // empty (inference from the max index would shrink them).
  out << kDimsHeader;
  for (const Index d : t.dims()) out << ' ' << d;
  out << '\n';
  for (const Nonzero& nz : t.nonzeros()) {
    for (ModeId m = 0; m < nz.order; ++m) {
      out << (nz.idx[m] + 1) << ' ';
    }
    out << strprintf("%.17g", nz.val) << '\n';
  }
}

void writeTnsFile(const std::string& path, const CooTensor& t) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for writing: " + path);
  writeTns(out, t);
}

namespace {
constexpr char kBinaryMagic[8] = {'C', 'S', 'T', 'F', 'B', 'I', 'N', '1'};

template <typename T>
void putRaw(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T getRaw(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw Error("truncated binary tensor stream");
  return v;
}
}  // namespace

void writeBinary(std::ostream& out, const CooTensor& t) {
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  putRaw<std::uint8_t>(out, t.order());
  for (Index d : t.dims()) putRaw<std::uint32_t>(out, d);
  putRaw<std::uint64_t>(out, t.nnz());
  for (const Nonzero& nz : t.nonzeros()) {
    for (ModeId m = 0; m < t.order(); ++m) putRaw<std::uint32_t>(out, nz.idx[m]);
    putRaw<double>(out, nz.val);
  }
  if (!out) throw Error("failed writing binary tensor");
}

void writeBinaryFile(const std::string& path, const CooTensor& t) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open for writing: " + path);
  writeBinary(out, t);
}

CooTensor readBinary(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    throw Error("not a CSTF binary tensor (bad magic)");
  }
  const auto order = getRaw<std::uint8_t>(in);
  CSTF_CHECK(order >= 1 && order <= kMaxOrder,
             "binary tensor has unsupported order");
  std::vector<Index> dims(order);
  for (ModeId m = 0; m < order; ++m) dims[m] = getRaw<std::uint32_t>(in);
  const auto nnz = getRaw<std::uint64_t>(in);
  std::vector<Nonzero> nzs;
  nzs.reserve(nnz);
  for (std::uint64_t i = 0; i < nnz; ++i) {
    Nonzero nz;
    nz.order = order;
    for (ModeId m = 0; m < order; ++m) nz.idx[m] = getRaw<std::uint32_t>(in);
    nz.val = getRaw<double>(in);
    nzs.push_back(nz);
  }
  CooTensor t(std::move(dims), std::move(nzs));
  t.validate();
  return t;
}

CooTensor readBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open tensor file: " + path);
  try {
    CooTensor t = readBinary(in);
    t.setName(path);
    return t;
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

namespace {
bool hasBnsExtension(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".bns") == 0;
}
}  // namespace

CooTensor readTensorFile(const std::string& path) {
  return hasBnsExtension(path) ? readBinaryFile(path) : readTnsFile(path);
}

void writeTensorFile(const std::string& path, const CooTensor& t) {
  if (hasBnsExtension(path)) {
    writeBinaryFile(path, t);
  } else {
    writeTnsFile(path, t);
  }
}

}  // namespace cstf::tensor
