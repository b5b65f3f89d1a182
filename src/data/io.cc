#include "data/io.h"

#include <sstream>
#include <vector>

#include "core/faultfs.h"
#include "core/knobs.h"

namespace whitenrec {
namespace data {

namespace {

// Guards against allocating absurd buffers from a corrupt .meta header
// before any cross-file validation can run.
constexpr std::size_t kMaxItems = 1u << 28;
constexpr std::size_t kMaxEmbedDim = 1u << 20;

// Stores a parsed token in *out; false when the token is malformed. Indices
// use core::ParseUnsigned (digits only, must fit): `stream >> value` is too
// lenient here — it accepts leading signs and, worse, a malformed token
// simply stops extraction and looks like a clean end of line. Feature reals
// use the permissive data-file grammar, core::ParseFloatToken.
template <typename T>
bool Parsed(const Result<T>& parsed, T* out) {
  if (!parsed.ok()) return false;
  *out = parsed.value();
  return true;
}

// Splits a blob into lines ('\n', optional trailing '\r' stripped) so every
// parse error can name the exact file and line it came from.
std::vector<std::string> SplitLines(const std::string& blob) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= blob.size()) {
    const std::size_t nl = blob.find('\n', start);
    if (nl == std::string::npos) {
      if (start < blob.size()) lines.push_back(blob.substr(start));
      break;
    }
    std::string line = blob.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
    start = nl + 1;
  }
  return lines;
}

Status MalformedLine(const std::string& file, std::size_t line_no,
                     const std::string& what) {
  return Status::DataLoss("LoadDataset: " + file + " line " +
                          std::to_string(line_no) + ": " + what);
}

}  // namespace

Status SaveDataset(const Dataset& dataset, const std::string& prefix) {
  // Each file is assembled in memory and persisted via atomic replace, so a
  // crash mid-save can never leave a half-written file behind.
  {
    std::ostringstream meta;
    meta << dataset.num_items << '\t' << dataset.num_categories << '\t'
         << dataset.text_embeddings.cols() << '\n';
    meta << dataset.name << '\n';
    WR_RETURN_IF_ERROR(core::AtomicWriteFile(prefix + ".meta", meta.str()));
  }
  {
    std::ostringstream seqs;
    for (const auto& seq : dataset.sequences) {
      for (std::size_t i = 0; i < seq.size(); ++i) {
        if (i > 0) seqs << ' ';
        seqs << seq[i];
      }
      seqs << '\n';
    }
    WR_RETURN_IF_ERROR(
        core::AtomicWriteFile(prefix + ".sequences", seqs.str()));
  }
  {
    std::ostringstream items;
    items.precision(17);
    for (std::size_t i = 0; i < dataset.num_items; ++i) {
      items << i << '\t'
            << (i < dataset.item_category.size() ? dataset.item_category[i]
                                                 : 0)
            << '\t';
      for (std::size_t c = 0; c < dataset.text_embeddings.cols(); ++c) {
        if (c > 0) items << ' ';
        items << dataset.text_embeddings(i, c);
      }
      items << '\n';
    }
    WR_RETURN_IF_ERROR(core::AtomicWriteFile(prefix + ".items", items.str()));
  }
  return Status::OK();
}

Result<Dataset> LoadDataset(const std::string& prefix) {
  Dataset dataset;
  std::size_t embed_dim = 0;
  {
    Result<std::string> blob = core::ReadFileToString(prefix + ".meta");
    if (!blob.ok()) return blob.status();
    const std::vector<std::string> lines = SplitLines(blob.value());
    if (lines.empty()) {
      return Status::DataLoss("LoadDataset: " + prefix + ".meta is empty");
    }
    std::istringstream header(lines[0]);
    std::string items_tok;
    std::string cats_tok;
    std::string dim_tok;
    if (!(header >> items_tok >> cats_tok >> dim_tok) ||
        !Parsed(core::ParseUnsigned(items_tok), &dataset.num_items) ||
        !Parsed(core::ParseUnsigned(cats_tok), &dataset.num_categories) ||
        !Parsed(core::ParseUnsigned(dim_tok), &embed_dim)) {
      return MalformedLine(prefix + ".meta", 1, "malformed header");
    }
    std::string extra;
    if (header >> extra) {
      return MalformedLine(prefix + ".meta", 1,
                           "trailing token '" + extra + "' after header");
    }
    if (dataset.num_items > kMaxItems || embed_dim > kMaxEmbedDim) {
      return MalformedLine(prefix + ".meta", 1, "implausible header counts");
    }
    if (lines.size() > 1) dataset.name = lines[1];
  }

  {
    Result<std::string> blob = core::ReadFileToString(prefix + ".sequences");
    if (!blob.ok()) return blob.status();
    const std::vector<std::string> lines = SplitLines(blob.value());
    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
      if (lines[ln].empty()) continue;
      std::istringstream stream(lines[ln]);
      std::vector<std::size_t> seq;
      std::string token;
      while (stream >> token) {
        std::size_t item = 0;
        if (!Parsed(core::ParseUnsigned(token), &item)) {
          return MalformedLine(prefix + ".sequences", ln + 1,
                               "malformed item id '" + token + "'");
        }
        if (item >= dataset.num_items) {
          return Status::OutOfRange(
              "LoadDataset: " + prefix + ".sequences line " +
              std::to_string(ln + 1) + ": item id " + std::to_string(item) +
              " out of range [0, " + std::to_string(dataset.num_items) + ")");
        }
        seq.push_back(item);
      }
      dataset.sequences.push_back(std::move(seq));
    }
  }

  dataset.item_category.assign(dataset.num_items, 0);
  dataset.text_embeddings = linalg::Matrix(dataset.num_items, embed_dim);
  {
    Result<std::string> blob = core::ReadFileToString(prefix + ".items");
    if (!blob.ok()) return blob.status();
    const std::vector<std::string> lines = SplitLines(blob.value());
    std::vector<char> seen(dataset.num_items, 0);
    std::size_t rows_seen = 0;
    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
      if (lines[ln].empty()) continue;
      std::istringstream stream(lines[ln]);
      std::string id_tok;
      std::string cat_tok;
      if (!(stream >> id_tok >> cat_tok)) {
        return MalformedLine(prefix + ".items", ln + 1, "truncated item line");
      }
      std::size_t id = 0;
      std::size_t category = 0;
      if (!Parsed(core::ParseUnsigned(id_tok), &id)) {
        return MalformedLine(prefix + ".items", ln + 1,
                             "malformed item id '" + id_tok + "'");
      }
      if (!Parsed(core::ParseUnsigned(cat_tok), &category)) {
        return MalformedLine(prefix + ".items", ln + 1,
                             "malformed category '" + cat_tok + "'");
      }
      if (id >= dataset.num_items) {
        return Status::OutOfRange(
            "LoadDataset: " + prefix + ".items line " +
            std::to_string(ln + 1) + ": item id " + std::to_string(id) +
            " out of range [0, " + std::to_string(dataset.num_items) + ")");
      }
      if (category >= dataset.num_categories && dataset.num_categories > 0) {
        return Status::OutOfRange(
            "LoadDataset: " + prefix + ".items line " +
            std::to_string(ln + 1) + ": category " +
            std::to_string(category) + " out of range [0, " +
            std::to_string(dataset.num_categories) + ")");
      }
      if (seen[id]) {
        return MalformedLine(prefix + ".items", ln + 1,
                             "duplicate item id " + std::to_string(id));
      }
      seen[id] = 1;
      dataset.item_category[id] = category;
      std::string value_tok;
      for (std::size_t c = 0; c < embed_dim; ++c) {
        double v = 0.0;
        if (!(stream >> value_tok) ||
            !Parsed(core::ParseFloatToken(value_tok), &v)) {
          return MalformedLine(
              prefix + ".items", ln + 1,
              "embedding row too short or malformed at column " +
                  std::to_string(c));
        }
        dataset.text_embeddings(id, c) = v;
      }
      if (stream >> value_tok) {
        return MalformedLine(prefix + ".items", ln + 1,
                             "trailing token '" + value_tok +
                                 "' after embedding row");
      }
      ++rows_seen;
    }
    if (rows_seen != dataset.num_items) {
      return Status::DataLoss(
          "LoadDataset: " + prefix + ".items has " +
          std::to_string(rows_seen) + " rows, expected " +
          std::to_string(dataset.num_items));
    }
  }
  return dataset;
}

}  // namespace data
}  // namespace whitenrec
