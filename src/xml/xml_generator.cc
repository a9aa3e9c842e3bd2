#include "src/xml/xml_generator.h"

#include <string>

#include "src/common/random.h"
#include "src/common/strings.h"

namespace oxml {
namespace {

const char* const kWords[] = {
    "market", "report", "city",    "council", "election", "storm",
    "series", "player", "science", "museum",  "travel",   "economy",
    "energy", "health", "policy",  "review",  "update",   "analysis",
    "local",  "global", "summit",  "budget",  "quarter",  "season",
};
constexpr int kNumWords = static_cast<int>(sizeof(kWords) / sizeof(kWords[0]));

std::string RandomSentence(Random* rng, int words) {
  std::string out;
  for (int i = 0; i < words; ++i) {
    if (i > 0) out.push_back(' ');
    out.append(kWords[rng->Uniform(0, kNumWords - 1)]);
  }
  return out;
}

class Generator {
 public:
  explicit Generator(const XmlGeneratorOptions& options)
      : options_(options), rng_(options.seed) {}

  std::unique_ptr<XmlDocument> Generate() {
    auto doc = std::make_unique<XmlDocument>();
    XmlNode* root = doc->root()->AppendChild(XmlNode::Element("root"));
    nodes_made_ = 1;
    // Keep expanding the root until we are close to the target size; each
    // Expand call adds one subtree of bounded depth.
    while (nodes_made_ < options_.target_nodes) {
      Expand(root, 2);
    }
    return doc;
  }

 private:
  std::string RandomTag() {
    return StrCat(
        {"tag", std::to_string(rng_.Uniform(0, options_.tag_vocabulary - 1))});
  }

  void Expand(XmlNode* parent, int depth) {
    XmlNode* element = parent->AppendChild(XmlNode::Element(RandomTag()));
    ++nodes_made_;
    if (rng_.Chance(options_.attribute_probability)) {
      element->SetAttribute("id", StrCat({"n", std::to_string(next_id_++)}));
      ++nodes_made_;
    }
    if (depth >= options_.max_depth || nodes_made_ >= options_.target_nodes) {
      MaybeAddText(element);
      return;
    }
    int fanout = static_cast<int>(rng_.Uniform(1, options_.max_fanout));
    for (int i = 0; i < fanout && nodes_made_ < options_.target_nodes; ++i) {
      if (rng_.Chance(options_.text_probability) && i == fanout - 1) {
        MaybeAddText(element);
      } else {
        Expand(element, depth + 1);
      }
    }
    if (element->children().empty()) MaybeAddText(element);
  }

  void MaybeAddText(XmlNode* element) {
    int words = static_cast<int>(rng_.Uniform(1, options_.max_text_words));
    element->AppendChild(XmlNode::Text(RandomSentence(&rng_, words)));
    ++nodes_made_;
  }

  XmlGeneratorOptions options_;
  Random rng_;
  size_t nodes_made_ = 0;
  size_t next_id_ = 0;
};

}  // namespace

std::unique_ptr<XmlDocument> GenerateXml(const XmlGeneratorOptions& options) {
  Generator g(options);
  return g.Generate();
}

std::unique_ptr<XmlDocument> GenerateNewsXml(
    const NewsGeneratorOptions& opts) {
  Random rng(opts.seed);
  auto doc = std::make_unique<XmlDocument>();
  XmlNode* nitf = doc->root()->AppendChild(XmlNode::Element("nitf"));

  XmlNode* head = nitf->AppendChild(XmlNode::Element("head"));
  XmlNode* title = head->AppendChild(XmlNode::Element("title"));
  title->AppendChild(XmlNode::Text(RandomSentence(&rng, 4)));
  XmlNode* dateline = head->AppendChild(XmlNode::Element("dateline"));
  dateline->AppendChild(
      XmlNode::Text(StrCat({"2002-06-0", std::to_string(rng.Uniform(1, 9))})));
  XmlNode* byline = head->AppendChild(XmlNode::Element("byline"));
  byline->AppendChild(XmlNode::Text(RandomSentence(&rng, 2)));

  XmlNode* body = nitf->AppendChild(XmlNode::Element("body"));
  for (int s = 0; s < opts.sections; ++s) {
    XmlNode* section = body->AppendChild(XmlNode::Element("section"));
    section->SetAttribute("id", StrCat({"s", std::to_string(s + 1)}));
    XmlNode* st = section->AppendChild(XmlNode::Element("title"));
    st->AppendChild(XmlNode::Text(RandomSentence(&rng, 3)));
    for (int p = 0; p < opts.paragraphs_per_section; ++p) {
      XmlNode* para = section->AppendChild(XmlNode::Element("para"));
      if (rng.Chance(0.25)) para->SetAttribute("class", "lead");
      para->AppendChild(XmlNode::Text(
          RandomSentence(&rng, 6 * opts.sentences_per_paragraph)));
    }
  }
  return doc;
}

std::unique_ptr<XmlDocument> GenerateAuctionXml(
    const AuctionGeneratorOptions& opts) {
  Random rng(opts.seed);
  auto doc = std::make_unique<XmlDocument>();
  XmlNode* site = doc->root()->AppendChild(XmlNode::Element("site"));

  // Regions with items whose descriptions are ordered paragraph lists.
  XmlNode* regions = site->AppendChild(XmlNode::Element("regions"));
  int item_id = 0;
  for (const char* region_name : {"africa", "asia", "europe"}) {
    XmlNode* region = regions->AppendChild(XmlNode::Element(region_name));
    for (int i = 0; i < opts.items_per_region; ++i) {
      XmlNode* item = region->AppendChild(XmlNode::Element("item"));
      item->SetAttribute("id", StrCat({"item", std::to_string(item_id++)}));
      XmlNode* name = item->AppendChild(XmlNode::Element("name"));
      name->AppendChild(XmlNode::Text(RandomSentence(&rng, 2)));
      XmlNode* description =
          item->AppendChild(XmlNode::Element("description"));
      XmlNode* parlist = description->AppendChild(XmlNode::Element("parlist"));
      int paragraphs = static_cast<int>(rng.Uniform(1, 4));
      for (int p = 0; p < paragraphs; ++p) {
        XmlNode* li = parlist->AppendChild(XmlNode::Element("listitem"));
        li->AppendChild(XmlNode::Text(RandomSentence(&rng, 8)));
      }
      XmlNode* quantity = item->AppendChild(XmlNode::Element("quantity"));
      quantity->AppendChild(
          XmlNode::Text(std::to_string(rng.Uniform(1, 10))));
    }
  }

  // Open auctions: the bid history is the paper's canonical ordered list
  // (appends at the tail, "latest bid" = last child).
  XmlNode* auctions = site->AppendChild(XmlNode::Element("open_auctions"));
  for (int a = 0; a < opts.open_auctions; ++a) {
    XmlNode* auction = auctions->AppendChild(XmlNode::Element("open_auction"));
    auction->SetAttribute("id", StrCat({"auction", std::to_string(a)}));
    XmlNode* initial = auction->AppendChild(XmlNode::Element("initial"));
    double price = static_cast<double>(rng.Uniform(1, 100));
    initial->AppendChild(XmlNode::Text(std::to_string(price)));
    for (int b = 0; b < opts.bids_per_auction; ++b) {
      XmlNode* bidder = auction->AppendChild(XmlNode::Element("bidder"));
      XmlNode* date = bidder->AppendChild(XmlNode::Element("date"));
      date->AppendChild(XmlNode::Text(
          StrCat({"2002-06-", std::to_string(10 + b)})));
      XmlNode* ref = bidder->AppendChild(XmlNode::Element("personref"));
      int64_t person = rng.Uniform(0, opts.people > 0 ? opts.people - 1 : 0);
      ref->SetAttribute("person", StrCat({"person", std::to_string(person)}));
      XmlNode* increase = bidder->AppendChild(XmlNode::Element("increase"));
      price += static_cast<double>(rng.Uniform(1, 20));
      increase->AppendChild(XmlNode::Text(std::to_string(price)));
    }
    XmlNode* current = auction->AppendChild(XmlNode::Element("current"));
    current->AppendChild(XmlNode::Text(std::to_string(price)));
  }

  // People.
  XmlNode* people = site->AppendChild(XmlNode::Element("people"));
  for (int p = 0; p < opts.people; ++p) {
    XmlNode* person = people->AppendChild(XmlNode::Element("person"));
    person->SetAttribute("id", StrCat({"person", std::to_string(p)}));
    XmlNode* name = person->AppendChild(XmlNode::Element("name"));
    name->AppendChild(XmlNode::Text(RandomSentence(&rng, 2)));
    XmlNode* email = person->AppendChild(XmlNode::Element("emailaddress"));
    email->AppendChild(
        XmlNode::Text("mailto:" + rng.Word(3, 8) + "@example.com"));
  }
  return doc;
}

std::unique_ptr<XmlDocument> GenerateWideXml(size_t n, uint64_t seed) {
  Random rng(seed);
  auto doc = std::make_unique<XmlDocument>();
  XmlNode* root = doc->root()->AppendChild(XmlNode::Element("root"));
  for (size_t i = 0; i < n; ++i) {
    XmlNode* item = root->AppendChild(XmlNode::Element("item"));
    item->AppendChild(XmlNode::Text(RandomSentence(&rng, 2)));
  }
  return doc;
}

std::unique_ptr<XmlDocument> GenerateDeepXml(size_t depth, uint64_t seed) {
  Random rng(seed);
  auto doc = std::make_unique<XmlDocument>();
  XmlNode* cur = doc->root()->AppendChild(XmlNode::Element("level0"));
  for (size_t d = 1; d < depth; ++d) {
    cur->AppendChild(XmlNode::Text(RandomSentence(&rng, 1)));
    cur = cur->AppendChild(
        XmlNode::Element(StrCat({"level", std::to_string(d)})));
  }
  cur->AppendChild(XmlNode::Text("leaf"));
  return doc;
}

}  // namespace oxml
