//! Derives for the signature-only `serde` shim: each emits an empty
//! `impl`, relying on the traits' default (unreachable) method bodies.
//! Only the item's name and generics are parsed.

use proc_macro::{TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = Item::parse(input);
    format!(
        "impl<{}> ::serde::Serialize for {}<{}> {} {{}}",
        item.params, item.name, item.args, item.where_clause
    )
    .parse()
    .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = Item::parse(input);
    format!(
        "impl<'de, {}> ::serde::Deserialize<'de> for {}<{}> {} {{}}",
        item.params, item.name, item.args, item.where_clause
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

/// Name and generics of a `struct` or `enum`, as source text.
struct Item {
    name: String,
    /// Generic parameters with their bounds, defaults stripped.
    params: String,
    /// Generic parameter names only, for the type's argument list.
    args: String,
    where_clause: String,
}

impl Item {
    fn parse(input: TokenStream) -> Item {
        let mut tokens = input.into_iter().peekable();
        // Skip attributes, visibility and doc comments up to the keyword.
        for tt in tokens.by_ref() {
            if matches!(&tt, TokenTree::Ident(i) if ["struct", "enum"].contains(&i.to_string().as_str()))
            {
                break;
            }
        }
        let name = tokens.next().expect("item name").to_string();

        // Generic parameter list, split at top-level commas.
        let mut raw: Vec<Vec<TokenTree>> = Vec::new();
        if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            tokens.next();
            let mut depth = 1usize;
            raw.push(Vec::new());
            for tt in tokens.by_ref() {
                if let TokenTree::Punct(p) = &tt {
                    match p.as_char() {
                        '<' => depth += 1,
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        ',' if depth == 1 => {
                            raw.push(Vec::new());
                            continue;
                        }
                        _ => {}
                    }
                }
                raw.last_mut().expect("pushed above").push(tt);
            }
        }
        raw.retain(|p| !p.is_empty());

        let mut params = Vec::new();
        let mut args = Vec::new();
        for param in &raw {
            // Strip a default (`= T`): it is illegal in an impl header.
            let bound_end = param
                .iter()
                .position(|tt| matches!(tt, TokenTree::Punct(p) if p.as_char() == '='))
                .unwrap_or(param.len());
            params.push(text(&param[..bound_end]));
            // `'a`, `T` or `const N`: the name ends at the first `:`.
            let name_end = param[..bound_end]
                .iter()
                .position(|tt| matches!(tt, TokenTree::Punct(p) if p.as_char() == ':'))
                .unwrap_or(bound_end);
            let skip_const =
                usize::from(matches!(&param[0], TokenTree::Ident(i) if i.to_string() == "const"));
            args.push(text(&param[skip_const..name_end]));
        }

        // A `where` clause runs to the body (brace group) or, for tuple
        // structs, follows the paren group and runs to the `;`.
        let mut where_clause = Vec::new();
        let mut in_where = false;
        for tt in tokens {
            match &tt {
                TokenTree::Ident(i) if i.to_string() == "where" => in_where = true,
                TokenTree::Group(g) if g.delimiter() == proc_macro::Delimiter::Brace => break,
                TokenTree::Punct(p) if p.as_char() == ';' => break,
                _ => {}
            }
            if in_where {
                where_clause.push(tt);
            }
        }

        Item {
            name,
            params: params.join(", "),
            args: args.join(", "),
            where_clause: text(&where_clause),
        }
    }
}

fn text(tokens: &[TokenTree]) -> String {
    tokens.iter().cloned().collect::<TokenStream>().to_string()
}
