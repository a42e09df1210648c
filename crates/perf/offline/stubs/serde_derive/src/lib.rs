//! Offline stand-in for `serde_derive`: both derives expand to nothing and
//! swallow `#[serde(...)]` attributes. The `serde` stand-in implements its
//! marker traits for every type, so no generated code is needed.

use proc_macro::TokenStream;

/// Expands to nothing; `serde::Serialize` is a blanket-implemented marker.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Expands to nothing; `serde::Deserialize` is a blanket-implemented marker.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
