#include "src/relational/schema.h"

#include <cstring>

namespace oxml {

int Schema::IndexOf(std::string_view name) const {
  // Pass 1: exact match on the stored name.
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  // Pass 2: match against the unqualified suffix of qualified columns.
  int found = -1;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const std::string& col = columns_[i].name;
    size_t dot = col.rfind('.');
    if (dot == std::string::npos) continue;
    if (std::string_view(col).substr(dot + 1) == name) {
      if (found >= 0) return -2;  // ambiguous
      found = static_cast<int>(i);
    }
  }
  return found;
}

void Schema::Append(const Schema& other, std::string_view qualifier) {
  for (const Column& c : other.columns()) {
    std::string name = c.name;
    if (!qualifier.empty() && name.find('.') == std::string::npos) {
      name = std::string(qualifier) + "." + name;
    }
    columns_.push_back({std::move(name), c.type});
  }
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += TypeIdToString(columns_[i].type);
  }
  out += ")";
  return out;
}

namespace {

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

}  // namespace

std::string EncodeRow(const Schema& schema, const Row& row) {
  std::string out;
  size_t n = schema.size();
  size_t bitmap_bytes = (n + 7) / 8;
  out.assign(bitmap_bytes, '\0');
  for (size_t i = 0; i < n; ++i) {
    const Value& v = row[i];
    if (v.is_null()) {
      out[i / 8] |= static_cast<char>(1 << (i % 8));
      continue;
    }
    switch (schema.column(i).type) {
      case TypeId::kInt:
        PutU64(static_cast<uint64_t>(v.AsInt()), &out);
        break;
      case TypeId::kDouble: {
        double d = v.AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        PutU64(bits, &out);
        break;
      }
      case TypeId::kText:
      case TypeId::kBlob:
        PutU32(static_cast<uint32_t>(v.AsString().size()), &out);
        out.append(v.AsString());
        break;
      case TypeId::kNull:
        break;
    }
  }
  return out;
}

Status DecodeRow(const Schema& schema, std::string_view bytes, Row* row) {
  size_t n = schema.size();
  size_t bitmap_bytes = (n + 7) / 8;
  if (bytes.size() < bitmap_bytes) {
    return Status::Internal("row bytes shorter than null bitmap");
  }
  row->resize(n);
  size_t pos = bitmap_bytes;
  for (size_t i = 0; i < n; ++i) {
    Value& out = (*row)[i];
    bool is_null = (bytes[i / 8] >> (i % 8)) & 1;
    if (is_null) {
      out = Value::Null();
      continue;
    }
    switch (schema.column(i).type) {
      case TypeId::kInt: {
        if (pos + 8 > bytes.size()) return Status::Internal("truncated row");
        uint64_t v;
        std::memcpy(&v, bytes.data() + pos, 8);
        pos += 8;
        out = Value::Int(static_cast<int64_t>(v));
        break;
      }
      case TypeId::kDouble: {
        if (pos + 8 > bytes.size()) return Status::Internal("truncated row");
        double d;
        std::memcpy(&d, bytes.data() + pos, 8);
        pos += 8;
        out = Value::Double(d);
        break;
      }
      case TypeId::kText:
      case TypeId::kBlob: {
        if (pos + 4 > bytes.size()) return Status::Internal("truncated row");
        uint32_t len;
        std::memcpy(&len, bytes.data() + pos, 4);
        pos += 4;
        if (len > bytes.size() - pos) return Status::Internal("truncated row");
        out.AssignString(schema.column(i).type, bytes.substr(pos, len));
        pos += len;
        break;
      }
      case TypeId::kNull:
        out = Value::Null();
        break;
    }
  }
  return Status::OK();
}

}  // namespace oxml
