//! [`messages!`](crate::messages!): every wire message and file payload
//! layout in the workspace is declared once, as a table, and the table
//! emits the type, its encoder and its decoder — so the two halves of a
//! codec can never disagree.
//!
//! ## Declaring a family
//!
//! ```text
//! messages! {
//!     /// docs, derives
//!     pub enum Name ["noun"] {           // "unknown {noun} {tag}"
//!         /// docs
//!         TAG => Unit,
//!         TAG => Tuple(binding: Type = codec),
//!         TAG => Struct { field: Type = codec, … },
//!     }
//!     check |value, dec| expr;           // optional, after the fields
//! }
//!
//! messages! {
//!     pub struct Name ["noun" = VERSION] { field: Type = codec, … }
//! }
//! ```
//!
//! An enum is `tag (u8) | fields`; a struct is its fields, opened by a
//! version byte when `["noun" = VERSION]` is given. Fields travel in
//! declaration order, each through its `codec`:
//!
//! | codec                     | wire form                                   |
//! |---------------------------|---------------------------------------------|
//! | `u8` `u32` `u64` `i64` `f64` | the [`Enc`]/[`Dec`] primitive            |
//! | `str`, `bytes`            | `u32` length, then UTF-8 / raw bytes        |
//! | `[enc, dec]`              | `enc(&mut Enc, &T)` / `dec(&mut Dec) -> Result<T>` |
//! | `(msg Type)`              | another declared family, nested             |
//! | `(wrap Ctor, codec)`      | a newtype `Ctor(inner)`                     |
//! | `(opt "what" codec)`      | [`Enc::opt`] / [`Dec::opt`]                 |
//! | `(seq "noun" MIN, codec)` | [`Enc::seq`] / [`Dec::seq`], items ≥ `MIN` bytes |
//!
//! `impl enum Name [...] { … }` and `impl struct Name [...] { … }` emit
//! only the codec, for a type declared next to its behaviour elsewhere
//! in the same crate. The encoder destructures that type without `..`
//! and the decoder builds it with a struct literal, so a field the
//! declaration misses does not compile.
//!
//! ## What a declaration emits
//!
//! * the type (not for `impl` forms), with the given docs and derives;
//! * `VARIANTS` (names, declaration order) and `TAGS` (parallel wire
//!   tags; for a struct, its version byte if any), like
//!   `CounterSet::NAMES`;
//! * `encode_to(&self, &mut Enc)` — the field form, for nesting — and
//!   `encode(&self) -> Vec<u8>`, one CRC frame written in place
//!   ([`Enc::framed`]);
//! * `decode_from(&mut Dec)` — tag dispatch, every field's decoder, then
//!   the `check` — and `decode(payload, label)`, which also refuses
//!   trailing bytes ([`Dec::finish`]); errors name `label`.
//!
//! [`Enc`]: crate::codec::Enc
//! [`Dec`]: crate::codec::Dec
//! [`Enc::opt`]: crate::codec::Enc::opt
//! [`Dec::opt`]: crate::codec::Dec::opt
//! [`Enc::seq`]: crate::codec::Enc::seq
//! [`Dec::seq`]: crate::codec::Dec::seq
//! [`Enc::framed`]: crate::codec::Enc::framed
//! [`Dec::finish`]: crate::codec::Dec::finish

/// Declares a wire-message family once; see the [module docs](mod@crate::messages).
///
/// ```
/// use gisolap_store::codec::read_single_frame;
/// use gisolap_store::messages;
///
/// messages! {
///     /// A door event.
///     #[derive(Debug, PartialEq)]
///     pub enum Door ["door tag"] {
///         /// Opened by someone.
///         1 => Opened { by: String = str },
///         /// Slammed this many times.
///         2 => Slammed(times: u32 = u32),
///     }
/// }
///
/// let framed = Door::Slammed(3).encode();
/// let payload = read_single_frame(&framed, "door").unwrap();
/// assert_eq!(payload, [2, 3, 0, 0, 0]);
/// assert_eq!(Door::decode(payload, "door").unwrap(), Door::Slammed(3));
/// assert_eq!(Door::VARIANTS, ["Opened", "Slammed"]);
/// assert!(Door::decode(&[9], "door").unwrap_err().to_string().contains("unknown door tag 9"));
/// ```
#[macro_export]
macro_rules! messages {
    // --- codec only, for a type declared elsewhere in the crate -----------
    (
        impl enum $name:ident [$noun:literal] {
            $(
                $tag:literal => $variant:ident
                    $( ( $tfield:ident : $tty:ty = $tcodec:tt ) )?
                    $( { $( $field:ident : $fty:ty = $fcodec:tt ),* $(,)? } )?
            ),+ $(,)?
        }
        $( check |$cv:ident $(, $cd:ident)?| $check:expr; )?
    ) => {
        impl $name {
            /// Variant names, in declaration order.
            pub const VARIANTS: &'static [&'static str] = &[$( stringify!($variant) ),+];
            /// Wire tags, parallel to `VARIANTS`.
            pub const TAGS: &'static [u8] = &[$( $tag ),+];

            /// Appends the tag, then every field in declaration order.
            pub fn encode_to(&self, e: &mut $crate::codec::Enc) {
                match self {
                    $(
                        Self::$variant $( ( $tfield ) )? $( { $( $field ),* } )? => {
                            e.u8($tag);
                            $( $crate::messages!(@enc e, $tfield, $tcodec); )?
                            $( $( $crate::messages!(@enc e, $field, $fcodec); )* )?
                        }
                    )+
                }
            }

            /// Reads the tag, every field of its variant, then the check.
            pub fn decode_from(d: &mut $crate::codec::Dec<'_>) -> $crate::Result<Self> {
                let value = match d.u8()? {
                    $(
                        $tag => Self::$variant
                            $( ( $crate::messages!(@dec d, $tcodec) ) )?
                            $( { $( $field: $crate::messages!(@dec d, $fcodec) ),* } )?,
                    )+
                    other => return Err(d.corrupt(format!("unknown {} {other}", $noun))),
                };
                $( $crate::messages!(@check value, d, $cv $(, $cd)?, $check); )?
                Ok(value)
            }

            $crate::messages!(@framing);
        }
    };
    (
        impl struct $name:ident $( [$noun:literal = $version:literal] )? {
            $( $field:ident : $fty:ty = $fcodec:tt ),+ $(,)?
        }
        $( check |$cv:ident $(, $cd:ident)?| $check:expr; )?
    ) => {
        impl $name {
            /// The family's one name (a struct has no variants).
            pub const VARIANTS: &'static [&'static str] = &[stringify!($name)];
            /// The version byte the payload opens with, if any.
            pub const TAGS: &'static [u8] = &[$( $version )?];

            /// Appends the version byte (if any), then every field in
            /// declaration order.
            pub fn encode_to(&self, e: &mut $crate::codec::Enc) {
                let $name { $( $field ),+ } = self;
                $( e.u8($version); )?
                $( $crate::messages!(@enc e, $field, $fcodec); )+
            }

            /// Reads the version byte (if any), every field, then the check.
            pub fn decode_from(d: &mut $crate::codec::Dec<'_>) -> $crate::Result<Self> {
                $(
                    match d.u8()? {
                        $version => {}
                        other => return Err(d.corrupt(format!("unknown {} {other}", $noun))),
                    }
                )?
                let value = $name { $( $field: $crate::messages!(@dec d, $fcodec) ),+ };
                $( $crate::messages!(@check value, d, $cv $(, $cd)?, $check); )?
                Ok(value)
            }

            $crate::messages!(@framing);
        }
    };

    // --- type plus codec --------------------------------------------------
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident [$noun:literal] {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                    $( ( $tfield:ident : $tty:ty = $tcodec:tt ) )?
                    $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty = $fcodec:tt ),* $(,)? } )?
            ),+ $(,)?
        }
        $( check |$cv:ident $(, $cd:ident)?| $check:expr; )?
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $( ( $tty ) )? $( { $( $(#[$fmeta])* $field: $fty ),* } )?,
            )+
        }
        $crate::messages! {
            impl enum $name [$noun] {
                $(
                    $tag => $variant
                        $( ( $tfield : $tty = $tcodec ) )?
                        $( { $( $field : $fty = $fcodec ),* } )?
                ),+
            }
            $( check |$cv $(, $cd)?| $check; )?
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $( [$noun:literal = $version:literal] )? {
            $( $(#[$fmeta:meta])* $field:ident : $fty:ty = $fcodec:tt ),+ $(,)?
        }
        $( check |$cv:ident $(, $cd:ident)?| $check:expr; )?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: $fty, )+
        }
        $crate::messages! {
            impl struct $name $( [$noun = $version] )? { $( $field : $fty = $fcodec ),+ }
            $( check |$cv $(, $cd)?| $check; )?
        }
    };

    // --- shared pieces ----------------------------------------------------
    (@framing) => {
        /// This message as one CRC frame, encoded in place.
        pub fn encode(&self) -> Vec<u8> {
            let mut e = $crate::codec::Enc::framed();
            self.encode_to(&mut e);
            e.into_framed()
        }

        /// Decodes exactly one message from `payload` (a frame's payload,
        /// already CRC-checked); trailing bytes are corruption. Errors
        /// are attributed to `label`.
        pub fn decode(payload: &[u8], label: &str) -> $crate::Result<Self> {
            let mut d = $crate::codec::Dec::new(payload, label);
            let value = Self::decode_from(&mut d)?;
            d.finish()?;
            Ok(value)
        }
    };
    (@check $value:ident, $d:ident, $cv:ident, $check:expr) => {{
        let $cv = &$value;
        $check?;
    }};
    (@check $value:ident, $d:ident, $cv:ident, $cd:ident, $check:expr) => {{
        let $cv = &$value;
        let $cd: &$crate::codec::Dec<'_> = $d;
        $check?;
    }};

    (@enc $e:ident, $v:ident, u8) => { $e.u8(*$v) };
    (@enc $e:ident, $v:ident, u32) => { $e.u32(*$v) };
    (@enc $e:ident, $v:ident, u64) => { $e.u64(*$v) };
    (@enc $e:ident, $v:ident, i64) => { $e.i64(*$v) };
    (@enc $e:ident, $v:ident, f64) => { $e.f64(*$v) };
    (@enc $e:ident, $v:ident, str) => { $e.str($v) };
    (@enc $e:ident, $v:ident, bytes) => { $e.bytes($v) };
    (@enc $e:ident, $v:ident, [$enc:path, $dec:path]) => { $enc($e, $v) };
    (@enc $e:ident, $v:ident, (msg $ty:ty)) => { <$ty>::encode_to($v, $e) };
    (@enc $e:ident, $v:ident, (wrap $ctor:path, $inner:tt)) => {{
        let $v = &$v.0;
        $crate::messages!(@enc $e, $v, $inner)
    }};
    (@enc $e:ident, $v:ident, (opt $what:literal $inner:tt)) => {
        $e.opt($v.as_ref(), |$e, $v| $crate::messages!(@enc $e, $v, $inner))
    };
    (@enc $e:ident, $v:ident, (seq $noun:literal $min:expr, $inner:tt)) => {
        $e.seq($v, |$e, $v| $crate::messages!(@enc $e, $v, $inner))
    };

    (@dec $d:ident, u8) => { $d.u8()? };
    (@dec $d:ident, u32) => { $d.u32()? };
    (@dec $d:ident, u64) => { $d.u64()? };
    (@dec $d:ident, i64) => { $d.i64()? };
    (@dec $d:ident, f64) => { $d.f64()? };
    (@dec $d:ident, str) => { $d.str()? };
    (@dec $d:ident, bytes) => { $d.bytes()?.to_vec() };
    (@dec $d:ident, [$enc:path, $dec:path]) => { $dec($d)? };
    (@dec $d:ident, (msg $ty:ty)) => { <$ty>::decode_from($d)? };
    (@dec $d:ident, (wrap $ctor:path, $inner:tt)) => {
        $ctor($crate::messages!(@dec $d, $inner))
    };
    (@dec $d:ident, (opt $what:literal $inner:tt)) => {
        $d.opt($what, |$d| Ok($crate::messages!(@dec $d, $inner)))?
    };
    (@dec $d:ident, (seq $noun:literal $min:expr, $inner:tt)) => {
        $d.seq($noun, $min, |$d| Ok($crate::messages!(@dec $d, $inner)))?
    };
}
